"""Build a PairwiseHist synopsis for one dataset and write the serialized
bytes to disk — the framework's ingestion path (Fig. 2 black arrows).

Usage: python jobs/build_synopsis.py --dataset power --rows 100000 --ns 20000 --out /tmp/power.pwh
"""
import argparse

from _session import get_spark

from repro.core.build import build_synopsis
from repro.core.storage import eq12_bound, serialize
from repro.experiments.scenarios import original_dataset
from repro.gd.greedygd import compress_stats


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", type=str, default="power")
    ap.add_argument("--rows", type=int, default=None)
    ap.add_argument("--ns", type=int, default=20_000)
    ap.add_argument("--out", type=str, default="/tmp/synopsis.pwh")
    args = ap.parse_args()
    spark = get_spark("build-synopsis")
    pdf = original_dataset(args.dataset, args.rows)
    sdf = spark.createDataFrame(pdf)
    res = build_synopsis(sdf, n_sample=args.ns)
    st = compress_stats(sdf, res.infos, res.gd_plan, res.ph.n_rows)
    blob = serialize(res.ph)
    with open(args.out, "wb") as f:
        f.write(blob)
    print(f"dataset={args.dataset} rows={res.ph.n_rows} sample={res.ph.n_sample} "
          f"M={res.ph.M} alpha={res.ph.alpha}")
    print(f"1-d bins: {[h.k for h in res.ph.hists1d]}")
    print(f"synopsis: {len(blob)/1024:.1f} KB (Eq.12 bound {eq12_bound(res.ph)/1024:.1f} KB) -> {args.out}")
    print(f"GD: {st.n_bases} bases / {st.n_rows} rows, ratio {st.ratio:.2f}x")
    print(f"timings: { {k: round(v, 2) for k, v in res.timings.items()} }")
    spark.stop()


if __name__ == "__main__":
    main()
