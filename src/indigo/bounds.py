"""The k bounds of the exhaustive searches: front-end policy in one table.

The library computes at any order k.  Its exhaustive searches grow fast
with k, so the front ends bound them, and both read ``BOUNDS``: the CLI
refuses a k past a search's bound (exit 3, lifted by ``--unsafe-bound``),
and the verify-all sweep cuts the k range of each claim at the bound of
the search behind it (lifted by ``unsafe``).  Every limit of either front
end is a row here, with its number written in the row; only the sweep
runs ``localization``.
"""


class BoundExceededError(RuntimeError):
    """An exhaustive search was requested beyond its k bound."""


# search -> (k bound, the text that opens the CLI's refusal; None where no
# subcommand runs the search)
BOUNDS = {
    "laws": (64, "exhaustive law verification is"),
    # the peeling is O(k) bitset steps, so the sweep runs both claims at every k,
    # but clique and chromatic queries above it still exit 3
    "clique": (24, "exact clique search is"),
    "chromatic": (24, "exact chromatic search is"),
    "ideals": (16, "ideal enumeration is"),
    "localization": (10, None),  # fractions over every multiplicative subset
    "oracle": (6, "factorization search is exhaustive;"),
}
