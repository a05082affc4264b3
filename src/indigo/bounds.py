"""The k bounds of the exhaustive searches: front-end policy in one table.

The library computes at any order k.  Its exhaustive searches grow fast
with k, so the front ends bound them, and both read ``BOUNDS``: the CLI
refuses a k past a search's bound (exit 3, lifted by ``--unsafe-bound``),
and the verify-all sweep cuts the k range of each claim at the bound of
the search behind it (lifted by ``unsafe``).  Every limit of either front
end is a row here; only the sweep runs ``localization``.
"""

LAW_CHECK_BOUND = 64
# the peeling is O(k) bitset steps, but clique and chromatic queries above it still exit 3
EXACT_SEARCH_BOUND = 24
IDEAL_ENUM_BOUND = 16
ORACLE_BOUND = 6


class BoundExceededError(RuntimeError):
    """An exhaustive search was requested beyond its k bound."""


# search -> (k bound, the text that opens the CLI's refusal; None where no
# subcommand runs the search)
BOUNDS = {
    "laws": (LAW_CHECK_BOUND, "exhaustive law verification is"),
    "clique": (EXACT_SEARCH_BOUND, "exact clique search is"),
    "chromatic": (EXACT_SEARCH_BOUND, "exact chromatic search is"),
    "ideals": (IDEAL_ENUM_BOUND, "ideal enumeration is"),
    "localization": (10, None),  # fractions over every multiplicative subset
    "oracle": (ORACLE_BOUND, "factorization search is exhaustive;"),
}
