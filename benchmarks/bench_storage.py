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


def _bench_append(benchmark, ph_built, batch):
    """Time ``append_rows`` of ``batch`` into a fresh copy of the built
    synopsis per round."""
    from repro.core.update import append_rows

    blob = serialize(ph_built.ph)
    grown = []

    def setup():
        grown.append(deserialize(blob))
        return (grown[-1], batch), {}

    benchmark.pedantic(append_rows, setup=setup, rounds=20, iterations=1)
    assert grown[-1].n_rows == ph_built.ph.n_rows + len(batch)


def test_append_rows(benchmark, ph_built, power_scaled):
    """Fig. 2 update path: one 5k-row batch folded into a fresh copy of the
    built synopsis per round."""
    from repro.gd.preprocess import encode_pandas

    batch = encode_pandas(power_scaled.sample(n=5000, random_state=1), ph_built.infos)
    _bench_append(benchmark, ph_built, batch)


def test_append_rows_with_nulls(benchmark, ph_built, power_scaled):
    """The same batch with NaNs in two columns: their pair dimensions are
    binned over each pair's complete rows, apart from the shared ones."""
    from repro.gd.preprocess import encode_pandas

    batch = encode_pandas(power_scaled.sample(n=5000, random_state=1), ph_built.infos)
    batch.iloc[::4, 1] = float("nan")
    batch.iloc[1::3, 5] = float("nan")
    _bench_append(benchmark, ph_built, batch)


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
    from repro.gd.preprocess import encode_pandas

    sdf = spark.createDataFrame(power_scaled)
    sample = encode_pandas(power_scaled, ph_built.infos).sample(n=5000, random_state=0)
    plan = greedygd.choose_plan(sample, ph_built.infos)
    stats = benchmark.pedantic(
        lambda: greedygd.compress_stats(sdf, ph_built.infos, plan, ph_built.ph.n_rows),
        rounds=2,
        iterations=1,
    )
    assert stats.ratio > 1.0, "GD must compress the smooth sensor data"
