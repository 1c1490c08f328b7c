"""Synthetic stand-in for the UCI Adult dataset projection used in the paper.

The paper's evaluation (Section 4) projects the Adult Database onto five
attributes — Age, Marital Status, Race, Gender, Occupation — keeps the 45,222
tuples without missing values, and treats Occupation (14 values) as the
sensitive attribute.

This environment has no network access, so :func:`generate_adult` synthesizes
a table with the same schema, the same attribute cardinalities, marginals
matching the published Adult statistics, and mild realistic correlations
(occupation depends on gender; marital status depends on age). The worst-case
disclosure algorithms consume only per-bucket sensitive-value histograms, so
this preserves every code path and the qualitative shapes of Figures 5 and 6.
If you have the real ``adult.data`` file, load it with
:func:`repro.data.loader.load_adult_file` and every experiment accepts it
unchanged.
"""

from __future__ import annotations

try:  # numpy is the `fast` extra; only *generating* synthetic rows needs it
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

from repro.data.schema import Schema
from repro.data.table import Table

__all__ = [
    "ADULT_SCHEMA",
    "ADULT_SIZE",
    "OCCUPATIONS",
    "MARITAL_STATUSES",
    "RACES",
    "SEXES",
    "generate_adult",
]

#: Schema of the paper's Adult projection. Occupation is sensitive; the other
#: four attributes are quasi-identifiers (order fixes lattice-node layout).
ADULT_SCHEMA = Schema(
    quasi_identifiers=("age", "marital_status", "race", "sex"),
    sensitive="occupation",
)

#: Number of tuples after the paper removes records with missing values.
ADULT_SIZE = 45222

#: The fourteen occupation values of the Adult dataset (the sensitive domain).
OCCUPATIONS = (
    "Adm-clerical",
    "Armed-Forces",
    "Craft-repair",
    "Exec-managerial",
    "Farming-fishing",
    "Handlers-cleaners",
    "Machine-op-inspct",
    "Other-service",
    "Priv-house-serv",
    "Prof-specialty",
    "Protective-serv",
    "Sales",
    "Tech-support",
    "Transport-moving",
)

MARITAL_STATUSES = (
    "Divorced",
    "Married-AF-spouse",
    "Married-civ-spouse",
    "Married-spouse-absent",
    "Never-married",
    "Separated",
    "Widowed",
)

RACES = (
    "Amer-Indian-Eskimo",
    "Asian-Pac-Islander",
    "Black",
    "Other",
    "White",
)

SEXES = ("Female", "Male")

# ---------------------------------------------------------------------------
# Published Adult marginals (approximate, as fractions of the 45,222 rows).
# Sources: the standard UCI Adult summary statistics.
# ---------------------------------------------------------------------------

_SEX_PROBS = {"Male": 0.675, "Female": 0.325}

_RACE_PROBS = {
    "White": 0.8604,
    "Black": 0.0928,
    "Asian-Pac-Islander": 0.0291,
    "Amer-Indian-Eskimo": 0.0095,
    "Other": 0.0082,
}

# Occupation conditional on sex: men skew Craft-repair/Transport-moving,
# women skew Adm-clerical/Other-service; column sums are 1.
_OCCUPATION_GIVEN_SEX = {
    "Male": {
        "Adm-clerical": 0.072,
        "Armed-Forces": 0.0005,
        "Craft-repair": 0.190,
        "Exec-managerial": 0.141,
        "Farming-fishing": 0.046,
        "Handlers-cleaners": 0.060,
        "Machine-op-inspct": 0.072,
        "Other-service": 0.073,
        "Priv-house-serv": 0.0005,
        "Prof-specialty": 0.130,
        "Protective-serv": 0.029,
        "Sales": 0.120,
        "Tech-support": 0.028,
        "Transport-moving": 0.038,
    },
    "Female": {
        "Adm-clerical": 0.235,
        "Armed-Forces": 0.0002,
        "Craft-repair": 0.025,
        "Exec-managerial": 0.120,
        "Farming-fishing": 0.007,
        "Handlers-cleaners": 0.017,
        "Machine-op-inspct": 0.040,
        "Other-service": 0.183,
        "Priv-house-serv": 0.0158,
        "Prof-specialty": 0.150,
        "Protective-serv": 0.008,
        "Sales": 0.125,
        "Tech-support": 0.040,
        "Transport-moving": 0.034,
    },
}

# Occupation skew by age band, applied multiplicatively to the sex
# conditionals and renormalized. Mirrors the real Adult data: the youngest
# workers concentrate in service/sales/manual occupations (their age buckets
# are strongly skewed — the paper's Figure 5 starts near 0.3 disclosure at
# k = 0), while older workers skew managerial/professional/farming.
_OCCUPATION_AGE_MULTIPLIERS = (
    # 17-24
    {
        "Other-service": 2.9,
        "Handlers-cleaners": 2.2,
        "Sales": 1.5,
        "Machine-op-inspct": 1.1,
        "Adm-clerical": 1.1,
        "Exec-managerial": 0.25,
        "Prof-specialty": 0.35,
        "Craft-repair": 0.7,
        "Transport-moving": 0.6,
        "Protective-serv": 0.5,
        "Tech-support": 0.6,
        "Farming-fishing": 1.2,
        "Priv-house-serv": 1.5,
        "Armed-Forces": 1.5,
    },
    # 25-34
    {
        "Other-service": 1.0,
        "Exec-managerial": 0.95,
        "Prof-specialty": 1.05,
        "Craft-repair": 1.05,
    },
    # 35-49
    {
        "Exec-managerial": 1.2,
        "Prof-specialty": 1.15,
        "Other-service": 0.8,
        "Handlers-cleaners": 0.75,
        "Sales": 0.95,
    },
    # 50-64
    {
        "Exec-managerial": 1.25,
        "Prof-specialty": 1.05,
        "Farming-fishing": 1.5,
        "Other-service": 0.85,
        "Handlers-cleaners": 0.6,
        "Sales": 0.95,
        "Priv-house-serv": 1.5,
    },
    # 65-90
    {
        "Exec-managerial": 1.3,
        "Prof-specialty": 1.1,
        "Farming-fishing": 3.0,
        "Sales": 1.3,
        "Other-service": 1.3,
        "Priv-house-serv": 3.0,
        "Handlers-cleaners": 0.5,
        "Machine-op-inspct": 0.6,
        "Craft-repair": 0.6,
        "Adm-clerical": 0.8,
        "Tech-support": 0.4,
        "Protective-serv": 0.6,
    },
)

# Marital status conditional on coarse age band; rows sum to 1. Bands are
# [17,25), [25,35), [35,50), [50,65), [65,91).
_AGE_BANDS = (17, 25, 35, 50, 65, 91)

_MARITAL_GIVEN_AGE_BAND = (
    # 17-24: overwhelmingly never married
    {
        "Never-married": 0.88,
        "Married-civ-spouse": 0.09,
        "Divorced": 0.012,
        "Separated": 0.010,
        "Widowed": 0.001,
        "Married-spouse-absent": 0.006,
        "Married-AF-spouse": 0.001,
    },
    # 25-34
    {
        "Never-married": 0.42,
        "Married-civ-spouse": 0.455,
        "Divorced": 0.075,
        "Separated": 0.030,
        "Widowed": 0.003,
        "Married-spouse-absent": 0.015,
        "Married-AF-spouse": 0.002,
    },
    # 35-49
    {
        "Never-married": 0.17,
        "Married-civ-spouse": 0.60,
        "Divorced": 0.155,
        "Separated": 0.040,
        "Widowed": 0.015,
        "Married-spouse-absent": 0.019,
        "Married-AF-spouse": 0.001,
    },
    # 50-64
    {
        "Never-married": 0.07,
        "Married-civ-spouse": 0.645,
        "Divorced": 0.165,
        "Separated": 0.030,
        "Widowed": 0.075,
        "Married-spouse-absent": 0.015,
        "Married-AF-spouse": 0.0,
    },
    # 65-90
    {
        "Never-married": 0.045,
        "Married-civ-spouse": 0.545,
        "Divorced": 0.095,
        "Separated": 0.015,
        "Widowed": 0.29,
        "Married-spouse-absent": 0.01,
        "Married-AF-spouse": 0.0,
    },
)


def _normalized(probs: dict[str, float], domain: tuple[str, ...]) -> np.ndarray:
    """Return ``probs`` as an array aligned with ``domain`` and summing to 1."""
    vector = np.array([probs.get(value, 0.0) for value in domain], dtype=float)
    total = vector.sum()
    if total <= 0:
        raise ValueError("probability table sums to zero")
    return vector / total


def _sample_ages(rng: np.random.Generator, n: int) -> np.ndarray:
    """Right-skewed ages in [17, 90], mean ~38.5, like the Adult dataset."""
    body = rng.normal(loc=37.0, scale=12.5, size=n)
    # A small older tail: the Adult data has more 60+ records than a normal fit.
    tail_mask = rng.random(n) < 0.06
    tail = rng.uniform(60.0, 90.0, size=n)
    ages = np.where(tail_mask, tail, body)
    return np.clip(np.rint(ages), 17, 90).astype(int)


def generate_adult(n: int = ADULT_SIZE, *, seed: int = 20070419) -> Table:
    """Generate the synthetic Adult projection (deterministic for a seed).

    Parameters
    ----------
    n:
        Number of rows (default: the paper's 45,222).
    seed:
        PRNG seed; the default reproduces the tables reported in
        ``EXPERIMENTS.md`` exactly.

    Returns
    -------
    Table
        Rows with attributes ``age`` (int 17-90), ``marital_status``,
        ``race``, ``sex`` (quasi-identifiers) and ``occupation`` (sensitive,
        14 values), under :data:`ADULT_SCHEMA`.

    Examples
    --------
    >>> table = generate_adult(1000)
    >>> len(table), len(set(table.sensitive_values())) <= 14
    (1000, True)
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if np is None:
        raise ModuleNotFoundError(
            "generate_adult requires numpy for its seeded sampling "
            "(pip install 'repro[fast]'); real data loaded via "
            "repro.data.loader works without it"
        )
    rng = np.random.default_rng(seed)

    ages = _sample_ages(rng, n)

    sex_probs = _normalized(_SEX_PROBS, SEXES)
    sexes = rng.choice(np.array(SEXES, dtype=object), size=n, p=sex_probs)

    race_probs = _normalized(_RACE_PROBS, RACES)
    races = rng.choice(np.array(RACES, dtype=object), size=n, p=race_probs)

    # Marital status: sample per age band so youth are mostly never-married.
    marital = np.empty(n, dtype=object)
    band_index = np.digitize(ages, _AGE_BANDS[1:-1], right=False)
    for band, conditional in enumerate(_MARITAL_GIVEN_AGE_BAND):
        mask = band_index == band
        count = int(mask.sum())
        if count == 0:
            continue
        probs = _normalized(conditional, MARITAL_STATUSES)
        marital[mask] = rng.choice(
            np.array(MARITAL_STATUSES, dtype=object), size=count, p=probs
        )

    # Occupation: sample conditionally on (sex, age band).
    occupation = np.empty(n, dtype=object)
    for sex in SEXES:
        base = _normalized(_OCCUPATION_GIVEN_SEX[sex], OCCUPATIONS)
        for band, multipliers in enumerate(_OCCUPATION_AGE_MULTIPLIERS):
            mask = (sexes == sex) & (band_index == band)
            count = int(mask.sum())
            if count == 0:
                continue
            scale = np.array(
                [multipliers.get(value, 1.0) for value in OCCUPATIONS]
            )
            probs = base * scale
            probs /= probs.sum()
            occupation[mask] = rng.choice(
                np.array(OCCUPATIONS, dtype=object), size=count, p=probs
            )

    columns = {
        "age": [int(a) for a in ages],
        "marital_status": list(marital),
        "race": list(races),
        "sex": list(sexes),
        "occupation": list(occupation),
    }
    return Table.from_columns(columns, ADULT_SCHEMA)
