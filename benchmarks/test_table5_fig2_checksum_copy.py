"""Table 5 / Figure 2: copy and checksum measurements.

Regenerates the user-level microbenchmark of the four §4.1 algorithm
variants (ULTRIX checksum, bcopy, optimized checksum, integrated
copy+checksum) and the "Savings When Integrated" column.
"""

from repro.core import paperdata
from repro.core.microbench import copy_checksum_bench
from repro.core.report import ascii_chart, format_table
from repro.hw import decstation_5000_200


def test_table5_and_figure2():
    points = copy_checksum_bench()

    rows = []
    for p in points:
        paper = paperdata.TABLE5_COPY_CHECKSUM[p.size]
        rows.append((p.size,
                     round(p.ultrix_checksum), paper[0],
                     round(p.ultrix_bcopy), paper[1],
                     round(p.optimized_checksum), paper[3],
                     round(p.integrated), paper[4],
                     round(p.savings_when_integrated_pct), paper[5]))
    print()
    print(format_table(
        "Table 5: copy and checksum measurements (us)",
        ("size", "ultrix", "(p)", "bcopy", "(p)", "opt", "(p)",
         "integ", "(p)", "sav%", "(p)"), rows, width=8))
    print()
    print(ascii_chart(
        "Figure 2: Copy and Checksum Measurements (us)",
        [p.size for p in points],
        {
            "copy & ULTRIX cksum": [p.ultrix_total for p in points],
            "copy & optimized cksum": [p.ultrix_bcopy
                                       + p.optimized_checksum
                                       for p in points],
            "integrated copy & cksum": [p.integrated for p in points],
        }))

    for p in points:
        paper = paperdata.TABLE5_COPY_CHECKSUM[p.size]
        assert abs(p.ultrix_checksum - paper[0]) <= max(2.0, 0.1 * paper[0])
        assert abs(p.ultrix_bcopy - paper[1]) <= max(2.0, 0.1 * paper[1])
        assert abs(p.optimized_checksum - paper[3]) <= max(2.0,
                                                           0.1 * paper[3])
        assert abs(p.integrated - paper[4]) <= max(2.5, 0.1 * paper[4])
        # Orderings: optimized < ultrix; integrated < copy+optimized.
        assert p.optimized_checksum < p.ultrix_checksum
        assert p.integrated < p.ultrix_bcopy + p.optimized_checksum

    # The large-size savings settle at the paper's ~40%.
    big = points[-1]
    assert abs(big.savings_when_integrated_pct - 40) <= 5


def test_integrated_bandwidth_limit():
    """§4.1: 'the effective bandwidth limitation imposed by the combined
    copy and checksum loop is just above 9 MB/s'."""
    def bandwidth():
        return decstation_5000_200().copy_cksum_integrated.bandwidth_mb_s(
            8000)

    bw = bandwidth()
    assert 9.0 < bw < 10.0
