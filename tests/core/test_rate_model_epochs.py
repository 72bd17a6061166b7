"""Regression: no-op statistics updates must not churn the epoch.

``RateModel.update_streams`` used to bump ``version`` unconditionally,
so periodic re-estimation landing on identical numbers invalidated the
lifecycle service's entire plan cache for nothing.
"""

from repro.core.cost import RateModel
from repro.query.stream import StreamSpec


def make_model():
    return RateModel(
        {
            "A": StreamSpec("A", 0, rate=100.0),
            "B": StreamSpec("B", 1, rate=40.0),
        }
    )


class TestNoOpUpdate:
    def test_identical_update_keeps_the_version(self):
        model = make_model()
        assert model.update_streams(model.streams) is False
        assert model.version == 0

    def test_identical_update_keeps_the_memo_cache_warm(self):
        from repro.query.query import Query

        model = make_model()
        query = Query("q", ["A", "B"], sink=0, allow_cross_products=True)
        model.rate_for(query, {"A", "B"})
        assert len(model._cache) > 0
        model.update_streams(model.streams)
        assert len(model._cache) > 0  # untouched by the no-op

    def test_real_update_still_bumps(self):
        model = make_model()
        streams = model.streams
        streams["A"] = StreamSpec("A", 0, rate=500.0)
        assert model.update_streams(streams) is True
        assert model.version == 1
        assert model.stream("A").rate == 500.0

    def test_source_change_counts_as_a_change(self):
        model = make_model()
        streams = model.streams
        streams["B"] = StreamSpec("B", 7, rate=40.0)
        assert model.update_streams(streams) is True
        assert model.version == 1

    def test_service_epoch_does_not_churn_on_noop_ingest(self):
        """The end-to-end symptom: re-ingesting identical statistics
        used to kill every cached plan."""
        import repro
        from repro.service import StreamQueryService

        net = repro.transit_stub_by_size(16, seed=3)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=4, num_queries=2, joins_per_query=(1, 2)),
            seed=4,
        )
        rates = workload.rate_model()
        hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
        optimizer = repro.TopDownOptimizer(hierarchy, rates)
        service = StreamQueryService(optimizer, net, rates, hierarchy=hierarchy)
        before = service.statistics_epoch
        rates.update_streams(rates.streams)
        service.tick()
        assert service.statistics_epoch == before


class TestDocument:
    def test_restore_takes_the_documents_version_and_drops_the_memo(self):
        """The memoized view rates are derived: a document of the same
        version with other rates must not read them."""
        from repro.query.query import Query

        model = make_model()
        query = Query("q", ["A", "B"], sink=0, allow_cross_products=True)
        before = model.rate_for(query, {"A", "B"})
        doc = model.capture()
        doc["streams"][0]["rate"] *= 2
        model.restore(doc)
        assert model.version == 0 and model.stream("A").rate == 200.0
        assert model.rate_for(query, {"A", "B"}) == 2 * before
        assert model.capture() == doc
