"""tvcount selftest: recompute the known classical counts."""

from . import EXIT_OK, EXIT_SELFTEST

# the counts `selftest` checks: 40 and 3762 are classical anchors, 29822 and
# 626327 the paper's own values
KNOWN_COUNTS = (
    (2, 3, 3, 2, 40),
    (4, 6, 3, 2, 3762),
    (3, 5, 5, 3, 29822),
    (4, 10, 5, 2, 626327),
)


def run(args) -> int:
    from .. import counting

    failures = 0
    for m, n, a, b, expected in KNOWN_COUNTS:
        got = counting.degree_of_power_sum_locus(counting.validate(m, n, a, b))
        failures += got != expected
        print(f"{'PASS' if got == expected else 'FAIL'} (m,n,a,b)=({m},{n},{a},{b}): expected {expected}, got {got}")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST
