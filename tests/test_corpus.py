import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit.corpus import (
    DEFAULT_TEMPLATE,
    SplitRole,
    Task,
    TaskKind,
    assemble_prompt,
    load_task_file,
    split_examples,
    task_from_dict,
)
from defkit.errors import DefkitError, InvariantError

from conftest import make_task, replace, write_task_file


def minimal_task_dict(**overrides):
    data = {
        "id": "t1",
        "name": "t1",
        "definition": "Classify the text.",
        "category": "Text Categorization",
        "domains": ["News"],
        "reasoning_types": ["Deductive"],
        "kind": "classification",
        "label_list": ["Yes", "No"],
        "demonstrations": [
            {"input": "a", "output": "Yes"},
            {"input": "b", "output": "No"},
        ],
        "instances": [
            {"id": "i1", "input": "x", "references": ["Yes"]},
            {"id": "i2", "input": "y", "references": ["No"]},
            {"id": "i3", "input": "z", "references": ["Yes"]},
        ],
    }
    data.update(overrides)
    return data


class TestLoadTaskFile:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "t1.json"
        path.write_text(json.dumps(minimal_task_dict()))
        task = load_task_file(path)
        assert task.kind is TaskKind.CLASSIFICATION
        assert task.label_list == ("Yes", "No")
        assert len(task.instances) == 3

    def test_single_demo_rejected(self, tmp_path):
        data = minimal_task_dict(
            kind="generation",
            demonstrations=[{"input": "a", "output": "b"}],
        )
        del data["label_list"]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantError, match="demonstrations: need >= 2"):
            load_task_file(path)

    def test_classification_without_labels(self, tmp_path):
        data = minimal_task_dict()
        del data["label_list"]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantError, match="label_list"):
            load_task_file(path)

    def test_missing_field_names_field(self):
        data = minimal_task_dict()
        del data["definition"]
        with pytest.raises(DefkitError, match="missing field 'definition'"):
            task_from_dict(data)

    def test_wrong_type_names_field(self):
        with pytest.raises(DefkitError, match="field 'domains' has wrong type"):
            task_from_dict(minimal_task_dict(domains="News"))

    def test_unknown_key_strict_vs_lenient(self):
        data = minimal_task_dict(extra_key=1)
        with pytest.raises(DefkitError, match=r"unknown keys \['extra_key'\]"):
            task_from_dict(data)
        task = task_from_dict(data, lenient=True)
        assert task.id == "t1"

    def test_bad_kind(self):
        with pytest.raises(DefkitError, match="field 'kind' must be 'classification'"):
            task_from_dict(minimal_task_dict(kind="regression"))

    def test_empty_definition(self):
        with pytest.raises(InvariantError, match="definition"):
            task_from_dict(minimal_task_dict(definition="   "))

    def test_duplicate_labels_after_trim(self):
        with pytest.raises(InvariantError, match="unique"):
            task_from_dict(minimal_task_dict(label_list=["Yes", " Yes "]))

    def test_roundtrip(self, tmp_path):
        task = make_task()
        path = write_task_file(tmp_path / "t.json", task)
        assert load_task_file(path) == task


class TestAssemblePrompt:
    def test_simple_substitution(self):
        task = make_task()
        prompt = assemble_prompt(task, "d", task.instances[0])
        assert prompt == (
            "Definition: d\n\n"
            "Positive Example 1-\nInput: demo input one\nOutput: demo output one\n\n"
            "Positive Example 2-\nInput: demo input two\nOutput: demo output two\n\n"
            "Now complete the following example-\nInput: input 0\nOutput:"
        )

    def test_default_template_empty_definition(self):
        task = make_task()
        prompt = assemble_prompt(task, "", task.instances[0])
        assert prompt.startswith("Definition: \n\nPositive Example 1-\n")
        assert "Input: demo input one\nOutput: demo output one" in prompt
        assert prompt.endswith("Input: input 0\nOutput:")

    def test_uses_exactly_first_two_demos(self):
        task = make_task()
        prompt = assemble_prompt(task, "d", task.instances[0])
        assert "demo input one" in prompt and "demo input two" in prompt

    @given(definition=st.text(max_size=40), inp=st.text(max_size=40))
    def test_length_arithmetic(self, definition, inp):
        # no hidden normalization: output length is exactly template length
        # minus placeholders plus substitutions
        task = make_task(inputs=[inp, "b", "c"])
        prompt = assemble_prompt(task, definition, task.instances[0])
        demo1, demo2 = task.demonstrations[:2]
        values = [definition, demo1.input, demo1.output, demo2.input, demo2.output, inp]
        names = ["definition", "demo1_in", "demo1_out", "demo2_in", "demo2_out", "input"]
        expected = (
            len(DEFAULT_TEMPLATE)
            - sum(len(f"{{{name}}}") for name in names)
            + sum(map(len, values))
        )
        assert len(prompt) == expected

    # text built from braces, placeholder names and format specs
    BRACED = st.lists(
        st.sampled_from(["{", "}", "{{", "}}", "{input}", "{definition}", "{0}", "{x!r:>3}"])
        | st.text(max_size=3),
        max_size=6,
    ).map("".join)

    @given(definition=BRACED, inp=BRACED, demo=BRACED)
    def test_braces_in_values_go_in_verbatim(self, definition, inp, demo):
        """Values holding braces or placeholder names are not templates: the
        prompt equals substituting each placeholder of the template once."""
        task = make_task(inputs=[inp, "b", "c"])
        demos = (replace(task.demonstrations[0], input=demo or "x"), task.demonstrations[1])
        task = replace(task, demonstrations=demos)
        prompt = assemble_prompt(task, definition, task.instances[0])
        values = {
            "definition": definition,
            "demo1_in": demos[0].input,
            "demo1_out": demos[0].output,
            "demo2_in": demos[1].input,
            "demo2_out": demos[1].output,
            "input": inp,
        }
        assert prompt == re.sub(r"\{(\w+)\}", lambda m: values[m.group(1)], DEFAULT_TEMPLATE)
        assert definition in prompt and inp in prompt and demos[0].input in prompt


class TestSplitExamples:
    def test_deterministic(self):
        task = make_task(n_instances=10)
        a = split_examples(task, 4, 4, seed=7)
        b = split_examples(task, 4, 4, seed=7)
        assert a == b
        assert a[0].role is SplitRole.FIT and a[1].role is SplitRole.HOLDOUT

    def test_disjoint_and_sized(self):
        task = make_task(n_instances=10)
        fit, holdout = split_examples(task, 4, 4, seed=7)
        assert len(fit.instances) == 4 and len(holdout.instances) == 4
        assert not set(fit.instances) & set(holdout.instances)

    def test_size_error(self):
        task = make_task(n_instances=150)
        with pytest.raises(DefkitError, match=r"need 100\+100 instances, have 150"):
            split_examples(task, 100, 100, seed=0)

    def test_zero_fit(self):
        task = make_task(n_instances=5)
        fit, holdout = split_examples(task, 0, 3, seed=1)
        assert fit.instances == ()
        assert len(holdout.instances) == 3

    @given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000))
    @settings(max_examples=40)
    def test_union_invariant_across_seeds(self, seed_a, seed_b):
        task = make_task(n_instances=8)
        fa, ha = split_examples(task, 4, 4, seed_a)
        fb, hb = split_examples(task, 4, 4, seed_b)
        assert set(fa.instances) | set(ha.instances) == set(fb.instances) | set(hb.instances)

    @given(n_instances=st.integers(0, 40), data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_split_is_a_prefix_of_the_seeded_shuffle_of_ids(self, n_instances, data, seed):
        """The instances of fit then holdout are the task's own, in the order
        the seeded shuffle of their ids puts them."""
        task = make_task(n_instances=n_instances)
        n_fit = data.draw(st.integers(0, n_instances))
        n_holdout = data.draw(st.integers(0, n_instances - n_fit))
        fit, holdout = split_examples(task, n_fit, n_holdout, seed)
        ids = [inst.id for inst in task.instances]
        random.Random(seed).shuffle(ids)
        drawn = fit.instances + holdout.instances
        assert [inst.id for inst in drawn] == ids[: n_fit + n_holdout]
        own = {inst.id: inst for inst in task.instances}
        assert all(inst is own[inst.id] for inst in drawn)


class TestInstanceById:
    def test_repeated_id_rejected(self):
        data = minimal_task_dict()
        data["instances"][2]["id"] = "i1"
        with pytest.raises(InvariantError, match="instances: id 'i1' repeated at indices 0 and 2"):
            task_from_dict(data)
