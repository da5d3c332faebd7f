"""Beyond the tables: realistic RPC traffic mixes per kernel variant.

The paper picks its sizes from RPC traffic studies (§1.2); here whole
*mixes* — LRPC-style small-call traffic, NFS-like traffic with 8 KB
reads, and a bulk-heavy mix — are run against the kernel variants to
show which optimization matters for which workload (the designer's-eye
summary of the whole paper)."""

from repro.core.report import format_table, pct_change
from repro.core.workloads import BULKY_MIX, LRPC_MIX, NFS_MIX, run_mix
from repro.kern.config import ChecksumMode, KernelConfig


def test_mix_latency_by_kernel_variant():
    def run():
        variants = {
            "standard": None,
            "no-predict": KernelConfig(header_prediction=False),
            "integrated": KernelConfig(
                checksum_mode=ChecksumMode.INTEGRATED),
            "no-cksum": KernelConfig(checksum_mode=ChecksumMode.OFF),
        }
        out = {}
        for mix in (LRPC_MIX, NFS_MIX, BULKY_MIX):
            out[mix.name] = {
                name: run_mix(mix, config=config, iterations=4,
                              warmup=2).weighted_mean_us
                for name, config in variants.items()
            }
        return out

    out = run()

    rows = []
    for mix_name, by_variant in out.items():
        std = by_variant["standard"]
        rows.append((mix_name, round(std),
                     round(pct_change(std, by_variant["no-predict"]), 1),
                     round(pct_change(std, by_variant["integrated"]), 1),
                     round(pct_change(std, by_variant["no-cksum"]), 1)))
    print()
    print(format_table(
        "Weighted-mean RPC latency by workload mix "
        "(saving% vs standard kernel)",
        ("mix", "std_us", "no-pred%", "integ%", "no-cksum%"), rows,
        width=12))

    # Small-call traffic: no optimization moves the needle much.
    lrpc = out["lrpc-small"]
    assert abs(pct_change(lrpc["standard"], lrpc["no-cksum"])) < 10
    assert pct_change(lrpc["standard"], lrpc["integrated"]) < 0
    # Bulk-heavy traffic: checksum work dominates; both checksum
    # optimizations win, elimination most.
    bulk = out["bulk-heavy"]
    assert pct_change(bulk["standard"], bulk["no-cksum"]) > 25
    assert pct_change(bulk["standard"], bulk["integrated"]) > 8
    # NFS-like sits in between.
    nfs = out["nfs-like"]
    assert (pct_change(lrpc["standard"], lrpc["no-cksum"])
            < pct_change(nfs["standard"], nfs["no-cksum"])
            < pct_change(bulk["standard"], bulk["no-cksum"]))
