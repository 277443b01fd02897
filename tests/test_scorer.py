import hashlib
import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit import scorer
from defkit.corpus import ExampleSet, Instance, SplitRole, TaskKind, split_examples
from defkit.errors import BackendError, InvariantError
from defkit.metrics import normalize
from defkit.scorer import (
    Backend,
    GenerationContext,
    GenerationParams,
    KeywordLabelBackend,
    PlantedPhraseBackend,
    ScoreCache,
    ScoreRecord,
    build_backend,
    cache_key_for,
    example_fingerprint,
    score,
    score_many,
)

from conftest import make_task


@pytest.fixture
def gen_task():
    return make_task(
        task_id="task_gen",
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=4,
        references=[["alpha"], ["beta"], ["gamma"], ["delta"]],
    )


def fit_set(task, n=4, seed=0):
    fit, _ = split_examples(task, n, 0, seed)
    return fit


class TestBackends:
    def test_constant(self, gen_task):
        """The planted backend with no phrase scores every definition alike."""
        backend = PlantedPhraseBackend("")
        for definition in ("any definition", "another", ""):
            record = score(definition, gen_task, fit_set(gen_task), backend)
            assert record.mean_score == 1.0
            assert record.per_instance == (1.0,) * 4

    def test_planted_present(self, gen_task):
        backend = PlantedPhraseBackend("classifies reviews")
        record = score(
            "this classifies reviews nicely", gen_task, fit_set(gen_task), backend
        )
        assert record.mean_score == 1.0

    def test_planted_missing_token(self, gen_task):
        backend = PlantedPhraseBackend("classifies reviews")
        record = score("this classifies text", gen_task, fit_set(gen_task), backend)
        assert record.mean_score == 0.0

    def test_keyword_label(self):
        task = make_task(
            task_id="task_kw",
            label_list=("Yes", "No"),
            n_instances=3,
            references=[["Yes"], ["Yes"], ["Yes"]],
        )
        backend = KeywordLabelBackend()
        hit = score("Output Yes or No", task, fit_set(task, 3), backend)
        assert hit.per_instance == (1.0, 1.0, 1.0)
        miss = score("Output something", task, fit_set(task, 3), backend)
        assert miss.mean_score == 0.0

    @given(
        definition=st.lists(st.sampled_from(["Yes", "no", "maybe", "x-y", "!"]), max_size=6),
        golds=st.lists(
            st.lists(st.sampled_from(["yes", "NO", "Maybe", "x", "y", "", "?"]), max_size=3),
            min_size=1,
            max_size=4,
        ),
        cold=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_keyword_label_equals_set_reference(self, definition, golds, cold):
        definition = " ".join(definition)
        golds = [" ".join(g) for g in golds]
        task = make_task(
            task_id="task_kw", kind=TaskKind.GENERATION, label_list=None,
            n_instances=len(golds), references=[[g] for g in golds],
        )
        if cold:
            scorer._label_tokens.cache_clear()
        ctx = GenerationContext(definition, task, task.instances)
        def_tokens = set(normalize(definition))
        expected = [g if set(normalize(g)) <= def_tokens else "unknown" for g in golds]
        backend = KeywordLabelBackend()
        assert backend.generate(ctx) == expected
        assert backend.generate(ctx) == expected

    def test_build_backend_requires_endpoint(self):
        with pytest.raises(InvariantError):
            build_backend("remote", GenerationParams())

    @pytest.mark.parametrize("name", ["remote", "planted", "keyword"])
    def test_build_backend_gives_the_backend_its_params(self, name):
        params = GenerationParams(max_new_tokens=7, temperature=0.5, seed=3)
        backend = build_backend(name, params, endpoint_url="http://127.0.0.1:9/x", phrase="alpha")
        assert backend.params == params

    def test_deterministic_repeat(self, gen_task):
        backend = PlantedPhraseBackend("alpha")
        a = score("alpha text", gen_task, fit_set(gen_task), backend)
        b = score("alpha text", gen_task, fit_set(gen_task), backend)
        assert a == b


class TestCache:
    def test_roundtrip(self, tmp_path, gen_task):
        cache_path = tmp_path / "cache.jsonl"
        cache = ScoreCache(cache_path)
        backend = PlantedPhraseBackend("alpha")
        record = score("defn", gen_task, fit_set(gen_task), backend, cache=cache)
        cache.close()
        reloaded = ScoreCache(cache_path)
        assert reloaded.get(record.cache_key) == record

    def test_hit_skips_backend(self, tmp_path, gen_task):
        cache = ScoreCache(tmp_path / "cache.jsonl")
        backend = PlantedPhraseBackend("alpha")
        score("alpha one", gen_task, fit_set(gen_task), backend, cache=cache)
        calls_before = backend.calls
        again = score("alpha one", gen_task, fit_set(gen_task), backend, cache=cache)
        assert backend.calls == calls_before
        assert cache.hits == 1
        assert again.mean_score == 1.0
        cache.close()

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        r1 = ScoreRecord("k1", "d", "fp", 0.1, (0.1,), "b")
        r2 = ScoreRecord("k1", "d", "fp", 0.9, (0.9,), "b")
        cache = ScoreCache(path)
        cache.put(r1)
        cache.put(r2)
        cache.close()
        assert ScoreCache(path).get("k1").mean_score == 0.9
        assert len(ScoreCache(path)) == 1

    def test_corrupt_line_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = ScoreRecord("k1", "d", "fp", 0.5, (0.5,), "b")
        path.write_text(
            json.dumps(vars(good)) + "\n" + "{not json\n" + "\n"
        )
        cache = ScoreCache(path)
        assert cache.get("k1") == good
        assert len(cache) == 1

    def test_line_not_utf8_skipped_with_a_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        good = ScoreRecord("k1", "d", "fp", 0.5, (0.5,), "b")
        path.write_bytes(b"\xff{}\n" + json.dumps(vars(good)).encode() + b"\n")
        cache = ScoreCache(path)
        assert cache.get("k1") == good
        assert len(cache) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"WARNING defkit.scorer: {path}:1: skipping corrupted cache line"
        ]

    @pytest.mark.parametrize(
        "fields",
        [
            {"mean_score": "high", "per_instance": []},
            {"mean_score": True, "per_instance": []},
            {"mean_score": None, "per_instance": []},
            {"mean_score": float("nan"), "per_instance": []},
            {"mean_score": float("inf"), "per_instance": []},
            {"mean_score": 10**400, "per_instance": []},
            {"mean_score": 0.5, "per_instance": []},
            {"mean_score": 0.5, "per_instance": "0.5"},
            {"mean_score": 0.5, "per_instance": {"0": 0.5}},
            {"mean_score": 0.5, "per_instance": ["0.5"]},
            {"mean_score": 1.0, "per_instance": [True]},
            {"mean_score": 0.5, "per_instance": [10**400]},
            {"definition": 5},
            {"example_fingerprint": ["fp"]},
            {"backend_id": None},
        ],
    )
    def test_record_of_the_wrong_types_is_rescored(self, tmp_path, capsys, gen_task, fields):
        """A line whose key matches but whose fields do not hold a score is a
        corrupt line, not a hit."""
        path = tmp_path / "cache.jsonl"
        fit = fit_set(gen_task)
        backend = PlantedPhraseBackend("alpha")
        cache = ScoreCache(path)
        record = score("defn", gen_task, fit, backend, cache=cache)
        cache.close()
        path.write_text(json.dumps({**vars(record), **fields}) + "\n")
        cache = ScoreCache(path)
        assert len(cache) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"WARNING defkit.scorer: {path}:1: skipping corrupted cache line"
        ]
        calls = backend.calls
        assert score("defn", gen_task, fit, backend, cache=cache) == record
        cache.close()
        assert backend.calls > calls and cache.hits == 0

    def test_record_over_no_instances_is_a_hit(self, tmp_path, gen_task):
        """`score --n 0` writes mean_score 0.0 over an empty per_instance."""
        path = tmp_path / "cache.jsonl"
        backend = PlantedPhraseBackend("alpha")
        cache = ScoreCache(path)
        record = score("defn", gen_task, fit_set(gen_task, 0), backend, cache=cache)
        cache.close()
        assert (record.mean_score, record.per_instance) == (0.0, ())
        cache = ScoreCache(path)
        assert cache.get(record.cache_key) == record
        assert cache.hits == 1

    def test_each_put_is_on_disk_and_close_releases_the_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ScoreCache(path)
        assert not path.exists()  # nothing written, nothing created
        lines = []
        for i in range(3):
            cache.put(ScoreRecord(f"k{i}", "d", "fp", 0.5, (0.5,), "b"))
            lines.append(
                f'{{"backend_id": "b", "cache_key": "k{i}", "definition": "d", '
                f'"example_fingerprint": "fp", "mean_score": 0.5, "per_instance": [0.5]}}'
            )
            assert path.read_text().splitlines() == lines
        cache.close()
        cache.close()
        cache.put(ScoreRecord("k3", "d", "fp", 0.5, (0.5,), "b"))
        cache.close()
        assert len(ScoreCache(path)) == 4

    def test_record_after_a_torn_last_line_loads(self, tmp_path, gen_task):
        # a run killed mid-write leaves half a record as the file's last line
        path = tmp_path / "cache.jsonl"
        backend = PlantedPhraseBackend("alpha")
        cache = ScoreCache(path)
        score("alpha one", gen_task, fit_set(gen_task), backend, cache=cache)
        score("alpha two", gen_task, fit_set(gen_task), backend, cache=cache)
        cache.close()
        text = path.read_text()
        path.write_text(text[: text.index("\n") + 40])
        cache = ScoreCache(path)
        assert len(cache) == 1
        record = score("alpha three", gen_task, fit_set(gen_task), backend, cache=cache)
        cache.close()
        reloaded = ScoreCache(path)
        assert reloaded.get(record.cache_key) == record
        assert len(reloaded) == 2
        calls = backend.calls
        score("alpha three", gen_task, fit_set(gen_task), backend, cache=reloaded)
        assert backend.calls == calls
        reloaded.close()

    def test_hits_counted_under_threads(self, tmp_path):
        cache = ScoreCache(tmp_path / "cache.jsonl")
        cache.put(ScoreRecord("k", "d", "fp", 0.5, (0.5,), "b"))

        def look_up():
            for _ in range(500):
                cache.get("k")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look_up) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        cache.close()
        assert cache.hits == 2000

    def test_key_depends_on_params(self):
        a = cache_key_for("b", "d", "fp", GenerationParams(max_new_tokens=10))
        b = cache_key_for("b", "d", "fp", GenerationParams(max_new_tokens=20))
        assert a != b

    # quotes, backslashes, line and paragraph separators, control and non-BMP
    # characters, mixed into any other text
    KEY_TEXT = st.text(
        st.characters() | st.sampled_from(['"', "\\", "\u2028", "\u2029", "\x00", "\U0001f600"])
    )

    @given(
        backend_id=KEY_TEXT,
        definition=KEY_TEXT,
        fingerprint=KEY_TEXT,
        params=st.builds(
            GenerationParams,
            st.integers(1, 10**6),
            st.floats(),
            st.none() | st.integers(-(2**63), 2**63),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_key_is_the_hash_of_the_whole_payload(
        self, backend_id, definition, fingerprint, params
    ):
        """The key hashes the JSON text of the four parts in one list, as it
        always has, so keys written by earlier versions keep hitting."""
        payload = json.dumps(
            [backend_id, definition, fingerprint, params.to_dict()],
            sort_keys=True,
            separators=(",", ":"),
        )
        expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert cache_key_for(backend_id, definition, fingerprint, params) == expected

    def test_keys_from_one_shared_prefix_under_threads(self):
        """Threads copy the one cached prefix hash at once; every key they
        make is still the hash of its own whole payload."""
        params = GenerationParams(seed=7)
        definitions = [f"definition {i} " * (i % 7) * 60 for i in range(200)]

        def reference(definition):
            payload = json.dumps(
                ["b", definition, "fp", params.to_dict()], sort_keys=True, separators=(",", ":")
            )
            return hashlib.sha256(payload.encode("utf-8")).hexdigest()

        expected = [reference(d) for d in definitions]
        results = []

        def make_keys():
            results.append([cache_key_for("b", d, "fp", params) for d in definitions])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=make_keys) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4

    @given(
        task_id=st.text(),
        ids=st.lists(st.text(), unique=True, max_size=5),
        role=st.sampled_from(SplitRole),
    )
    def test_equal_example_sets_share_a_fingerprint(self, task_id, ids, role):
        payload = json.dumps([task_id, role.value, ids], separators=(",", ":"))
        expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        instances = tuple(Instance(i, "input", ("ref",)) for i in ids)
        first, second = (ExampleSet(task_id, instances, role) for _ in range(2))
        assert example_fingerprint(first) == example_fingerprint(second) == expected


class TestScoreMany:
    DEFINITIONS = ["alpha one", "beta two", "alpha one", "alpha beta", "beta two"]

    @pytest.mark.parametrize("cached", [False, True])
    def test_equals_scoring_one_after_another(self, tmp_path, gen_task, cached):
        def run(name, score_all):
            cache = ScoreCache(tmp_path / f"{name}.jsonl") if cached else None
            backend = PlantedPhraseBackend("alpha")
            records = score_all(backend, cache)
            hits = cache.hits if cache else 0
            data = cache.path.read_bytes() if cache else b""
            if cache:
                cache.close()
            return records, backend.calls, hits, data

        fit = fit_set(gen_task)
        sequential = run(
            "one", lambda b, c: [score(d, gen_task, fit, b, cache=c) for d in self.DEFINITIONS]
        )
        batched = run("many", lambda b, c: score_many(self.DEFINITIONS, gen_task, fit, b, cache=c))
        assert batched == sequential
        records, calls, hits, _ = batched
        assert [r.definition for r in records] == self.DEFINITIONS
        # a repeat is a hit with a cache and another backend call without one
        assert (calls, hits) == ((3, 2) if cached else (5, 0))

    def test_failed_batch_caches_the_definitions_before_the_failure(self, tmp_path, gen_task):
        class Refusing(PlantedPhraseBackend):
            def generate(self, ctx):
                if ctx.definition == "alpha three":
                    raise BackendError("refused")
                return super().generate(ctx)

        definitions = ["alpha one", "beta two", "alpha three", "alpha four", "beta five"]
        fit = fit_set(gen_task)
        batch = ScoreCache(tmp_path / "batch.jsonl")
        with pytest.raises(BackendError, match="^task task_gen: refused$"):
            score_many(definitions, gen_task, fit, Refusing("alpha"), cache=batch)
        batch.close()
        one = ScoreCache(tmp_path / "one.jsonl")
        for definition in definitions[:2]:
            score(definition, gen_task, fit, PlantedPhraseBackend("alpha"), cache=one)
        one.close()
        assert batch.path.exists(), "no record of the batch was cached"
        assert batch.path.read_bytes() == one.path.read_bytes()
        assert len(one.path.read_text().splitlines()) == 2

    def test_repeat_inside_a_batch_hits_the_cache(self, tmp_path, gen_task):
        cache = ScoreCache(tmp_path / "cache.jsonl")
        backend = PlantedPhraseBackend("alpha")
        first, again = score_many(["alpha", "alpha"], gen_task, fit_set(gen_task), backend, cache=cache)
        assert first == again
        cache.close()
        assert (backend.calls, cache.hits, len(cache)) == (1, 1, 1)
        assert len(cache.path.read_text().splitlines()) == 1

    def test_a_key_cached_by_another_caller_midway_stays_a_miss(self, tmp_path, gen_task):
        # another task scores "beta" into the same cache while "alpha" generates
        fit = fit_set(gen_task)
        cache = ScoreCache(tmp_path / "cache.jsonl")

        class Concurrent(PlantedPhraseBackend):
            def generate(self, ctx):
                if ctx.definition == "alpha":
                    score("beta", gen_task, fit, PlantedPhraseBackend("gamma"), cache=cache)
                return super().generate(ctx)

        backend = Concurrent("gamma")
        alpha, beta, gamma = score_many(["alpha", "beta", "gamma"], gen_task, fit, backend, cache=cache)
        cache.close()
        assert [r.definition for r in (alpha, beta, gamma)] == ["alpha", "beta", "gamma"]
        assert (alpha.per_instance, beta.per_instance) == ((0.0,) * 4, (0.0,) * 4)
        assert gamma.per_instance == (1.0,) * 4  # its own generations, not beta's
        assert backend.calls == 3 and cache.hits == 0


class TestScoreRecord:
    def test_mean_consistency_enforced(self):
        with pytest.raises(InvariantError):
            ScoreRecord("k", "d", "fp", 0.9, (0.1, 0.1), "b")

    def test_fingerprint_binds_task(self, gen_task):
        other = make_task(task_id="other", kind=TaskKind.GENERATION, label_list=None)
        with pytest.raises(InvariantError, match="example set for 'other' used with task"):
            score("d", gen_task, fit_set(other, 2), PlantedPhraseBackend("alpha"))
