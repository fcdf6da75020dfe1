"""Table 1 summary row + Fig. 11 measurements: accuracy, latency, bounds,
synopsis size, build time, GD total-storage reduction and exact-engine
latency for context (paper: SQLite median 306.8 s; ours: DuckDB exact).

Usage: python jobs/run_table1.py [--dataset power] [--rows 500000] [--queries 120] [--ns 30000]
"""
import argparse
import time

from _session import get_spark

from repro.core.storage import synopsis_bytes
from repro.experiments.scenarios import compare_engines, make_workload, scaled_dataset
from repro.experiments.tables import table1_row
from repro.gd.greedygd import compress_stats
from repro.ground_truth import ExactEngine


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", type=str, default="power")
    ap.add_argument("--rows", type=int, default=500_000)
    ap.add_argument("--queries", type=int, default=120)
    ap.add_argument("--ns", type=int, default=30_000)
    args = ap.parse_args()
    spark = get_spark("table1")
    pdf = scaled_dataset(spark, args.dataset, args.rows)
    queries = make_workload(pdf, n_queries=args.queries, min_selectivity=1e-4, seed=5)
    reports, _, built = compare_engines(
        spark, pdf, queries, ns_ph=args.ns, ns_db=max(2000, args.ns // 10)
    )
    print("\nTABLE 1 (measured summary grid)")
    print(table1_row(reports))

    # GD total-storage reduction (Fig. 11b: paper 3.2-4.3x)
    st = compress_stats(spark.createDataFrame(pdf), built.infos, built.gd_plan, built.ph.n_rows)
    syn = synopsis_bytes(built.ph)
    print(
        f"GD storage: text~{st.text_bytes/1e6:.1f} MB  raw-binary={st.raw_bytes/1e6:.1f} MB  "
        f"compressed={st.compressed_bytes/1e6:.1f} MB (+ synopsis {syn/1e3:.0f} KB)  "
        f"bases={st.n_bases}/{st.n_rows}  "
        f"reduction vs binary={(st.raw_bytes/(st.compressed_bytes+syn)):.2f}x, "
        f"vs text={(st.text_bytes/(st.compressed_bytes+syn)):.2f}x (paper Fig.11b: 3.2-4.3x)"
    )

    # exact-engine latency for the 300000x-faster claim context
    ex = ExactEngine(pdf)
    t0 = time.perf_counter()
    for q in queries[:20]:
        ex.scalar(q)
    exact_ms = (time.perf_counter() - t0) / 20 * 1000
    ex.close()
    ph_ms = reports["PH"].median_latency_ms()
    print(f"exact (DuckDB) mean latency: {exact_ms:.1f} ms; PH median: {ph_ms:.3f} ms "
          f"-> {exact_ms/ph_ms:.0f}x faster (paper: >300000x vs SQLite at 1e9 rows)")
    spark.stop()


if __name__ == "__main__":
    main()
