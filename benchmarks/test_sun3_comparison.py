"""§4.1 in-text: Sun-3 vs DECstation combined copy+checksum scaling.

The paper compares its integrated copy+checksum against Clark et al.'s
Sun-3 numbers at 1 KB: Sun-3 130/140/200 µs (checksum/copy/combined) vs
DECstation 96/91/111 µs; savings of 35% vs 68%, and an 80% overall
platform improvement.
"""

from repro.core import paperdata
from repro.core.report import format_table
from repro.checksum import Bcopy, IntegratedCopyChecksum, OptimizedChecksum
from repro.hw import decstation_5000_200, sun_3


def test_sun3_vs_decstation():
    def run():
        out = {}
        for machine in (sun_3(), decstation_5000_200()):
            kb = 1024
            cksum = OptimizedChecksum(machine).cost_us(kb)
            copy = Bcopy(machine).cost_us(kb)
            combined = IntegratedCopyChecksum(machine).cost_us(kb)
            out[machine.name] = (cksum, copy, combined)
        return out

    out = run()
    sun = out["Sun-3"]
    dec = out["DECstation 5000/200"]

    print()
    print(format_table(
        "1 KB copy/checksum on two platforms (us)",
        ("machine", "cksum", "(p)", "copy", "(p)", "comb", "(p)"),
        [("Sun-3", round(sun[0]), paperdata.SUN3_1KB[0],
          round(sun[1]), paperdata.SUN3_1KB[1],
          round(sun[2]), paperdata.SUN3_1KB[2]),
         ("DEC5000", round(dec[0]), paperdata.DEC_1KB[0],
          round(dec[1]), paperdata.DEC_1KB[1],
          round(dec[2]), paperdata.DEC_1KB[2])], width=10))

    for sim, paper in zip(sun, paperdata.SUN3_1KB):
        assert abs(sim / paper - 1) <= 0.10
    for sim, paper in zip(dec, paperdata.DEC_1KB):
        assert abs(sim / paper - 1) <= 0.10

    # Savings as the paper computes them: (separate-combined)/combined.
    sun_saving = (sun[0] + sun[1] - sun[2]) / sun[2]
    dec_saving = (dec[0] + dec[1] - dec[2]) / dec[2]
    assert abs(sun_saving - 0.35) <= 0.06
    assert abs(dec_saving - 0.68) <= 0.09
    # "The overall improvement when switching ... is 80%."
    assert abs(sun[2] / dec[2] - 1 - 0.80) <= 0.10
