import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit.errors import DefkitError, InvariantError, UnbalancedError
from defkit.parse import (
    _LEXER,
    ParseNode,
    _lex,
    count_trees,
    detokenize,
    leaf_offsets,
    nodes_at_depth,
    parse_bracketed,
    remove_subtree,
    render,
)

from conftest import FOX_TREE_TEXT, subtree_leaves, to_bracketed, walk
from test_stdc import _TREE_TEXTS

CAT_TREE = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"

# Whitespace that `str.split` and `\s` agree on beyond ASCII: a file
# separator, NEL, no-break space, line separator and ideographic space.
UNICODE_SPACES = "\x1c\x85\xa0\u2028\u3000"


class TestParseBracketed:
    def test_leaves(self):
        tree = parse_bracketed(CAT_TREE)
        assert tree.source_tokens == ["the", "cat", "sat"]

    def test_unbalanced(self):
        with pytest.raises(UnbalancedError):
            parse_bracketed("((A a)")
        with pytest.raises(UnbalancedError):
            parse_bracketed("(A a))")

    def test_empty(self):
        with pytest.raises(DefkitError, match="no tree in input"):
            parse_bracketed("   ")

    def test_ptb_escapes(self):
        tree = parse_bracketed("(NP (-LRB- -LRB-) (NN x) (-RRB- -RRB-))")
        assert tree.source_tokens == ["(", "x", ")"]

    def test_multiple_roots_joined_under_top(self):
        tree = parse_bracketed("(S (NN a)) (S (NN b))")
        assert tree.root.label == "TOP"
        assert tree.source_tokens == ["a", "b"]

    def test_depth_convention(self):
        tree = parse_bracketed(CAT_TREE)
        assert tree.root.depth == 1
        # token nodes count as nodes one level below their preterminal
        assert tree.depth == 4


class TestNodesAtDepth:
    def test_layers(self):
        tree = parse_bracketed(CAT_TREE)
        assert [tree.node(i).label for i in nodes_at_depth(tree, 1)] == ["S"]
        assert [tree.node(i).label for i in nodes_at_depth(tree, 2)] == ["NP", "VP"]
        assert [tree.node(i).label for i in nodes_at_depth(tree, 3)] == ["DT", "NN", "VBD"]
        leaves = nodes_at_depth(tree, 4)
        assert [tree.node(i).token for i in leaves] == ["the", "cat", "sat"]

    def test_depth_error(self):
        tree = parse_bracketed(CAT_TREE)
        with pytest.raises(InvariantError, match=r"depth 0 outside 1\.\.4"):
            nodes_at_depth(tree, 0)
        with pytest.raises(InvariantError, match=r"depth 5 outside 1\.\.4"):
            nodes_at_depth(tree, 5)

    def test_layers_partition_nodes(self):
        tree = parse_bracketed(FOX_TREE_TEXT)
        seen = []
        for d in range(1, tree.depth + 1):
            seen.extend(nodes_at_depth(tree, d))
        assert sorted(seen) == sorted(tree.nodes)
        assert len(seen) == len(set(seen))


class TestRemoveSubtree:
    def test_remove_np(self):
        tree = parse_bracketed(CAT_TREE)
        np_id = nodes_at_depth(tree, 2)[0]
        pruned = remove_subtree(tree, np_id)
        assert pruned.source_tokens == ["sat"]
        # original unchanged
        assert tree.source_tokens == ["the", "cat", "sat"]

    def test_remove_leaf_token(self):
        tree = parse_bracketed(CAT_TREE)
        leaf_id = nodes_at_depth(tree, 4)[0]
        pruned = remove_subtree(tree, leaf_id)
        assert pruned.source_tokens == ["cat", "sat"]

    def test_remove_root_error(self):
        tree = parse_bracketed(CAT_TREE)
        with pytest.raises(InvariantError, match="cannot remove the root"):
            remove_subtree(tree, tree.root.id)

    def test_unknown_node(self):
        tree = parse_bracketed(CAT_TREE)
        with pytest.raises(InvariantError, match="no node with id 9999"):
            remove_subtree(tree, 9999)

    def test_token_accounting(self):
        tree = parse_bracketed(FOX_TREE_TEXT)
        before = len(tree.source_tokens)
        for node_id in sorted(tree.nodes):
            if node_id == tree.root.id:
                continue
            removed_leaves = len(subtree_leaves(tree.node(node_id)))
            pruned = remove_subtree(tree, node_id)
            assert len(pruned.source_tokens) == before - removed_leaves


class TestRender:
    def test_full(self):
        assert render(parse_bracketed(CAT_TREE)) == "the cat sat"

    def test_after_removal(self):
        tree = parse_bracketed(CAT_TREE)
        assert render(remove_subtree(tree, nodes_at_depth(tree, 2)[0])) == "sat"

    def test_contraction(self):
        assert detokenize(["do", "n't", "stop"]) == "don't stop"

    def test_punctuation(self):
        assert detokenize(["hello", ",", "world", "!"]) == "hello, world!"
        assert detokenize(["(", "a", ")"]) == "(a)"

    def test_empty(self):
        assert detokenize([]) == ""


class TestLeafOffsets:
    def test_split_word_and_escapes(self):
        tree = parse_bracketed("(S (VBP do) (RB n't) (NP (-LRB- -LRB-) (NN it) (-RRB- -RRB-)))")
        assert leaf_offsets(tree, " don't (it)\n") == [(1, 3), (3, 6), (7, 8), (8, 10), (10, 11)]

    def test_text_that_is_not_the_tokens(self):
        tree = parse_bracketed(CAT_TREE)
        assert leaf_offsets(tree, "the cat sat") == [(0, 3), (4, 7), (8, 11)]
        assert leaf_offsets(tree, "the cat sat.") is None  # a character no leaf writes
        assert leaf_offsets(tree, "the big cat sat") is None  # a skipped word
        assert leaf_offsets(tree, "the cat") is None  # a leaf past the end


@given(text=_TREE_TEXTS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_leaf_offsets_place_each_token(text, data):
    tree = parse_bracketed(text)
    tokens = tree.source_tokens

    def spelled(written):
        offsets = leaf_offsets(tree, written)
        return offsets is not None and [written[s:e] for s, e in offsets] == tokens

    assert spelled(detokenize(tokens))
    spaces = st.text(alphabet=" \t\n" + UNICODE_SPACES, max_size=3)
    gaps = data.draw(st.lists(spaces, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    spaced = gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))
    assert spelled(spaced)
    inked = [i for i, c in enumerate(spaced) if not c.isspace()]
    if inked:
        i = data.draw(st.sampled_from(inked))
        other = data.draw(st.characters().filter(lambda c: c != spaced[i]))
        assert leaf_offsets(tree, spaced[:i] + spaced[i + 1 :]) is None
        assert leaf_offsets(tree, spaced[:i] + other + spaced[i + 1 :]) is None


TAGS = ["S", "NP", "VP", "PP", "ADJP"]
WORDS = ["cat", "dog", "runs", "blue", "fast", "tree", "x1", "y2"]


def random_tree_text(rng, max_depth=6, max_leaves=40, tags=TAGS):
    budget = [rng.randint(1, max_leaves)]

    def gen(depth):
        if depth >= max_depth or budget[0] <= 0 or rng.random() < 0.3:
            budget[0] -= 1
            return f"({rng.choice(tags)} {rng.choice(WORDS)})"
        n_children = rng.randint(1, 3)
        children = " ".join(gen(depth + 1) for _ in range(n_children))
        return f"({rng.choice(tags)} {children})"

    return gen(1)


def test_random_roundtrip():
    rng = random.Random(42)
    for _ in range(100):
        text = random_tree_text(rng)
        tree = parse_bracketed(text)
        again = parse_bracketed(to_bracketed(tree))
        assert again.source_tokens == tree.source_tokens


DEEP = 10_000


def test_deep_tree_without_recursion_limit():
    text = "(X " * DEEP + "(NN deep) (, ,) (NN tree)" + ")" * DEEP
    tree = parse_bracketed(text)
    assert tree.depth == DEEP + 2
    assert render(tree) == "deep, tree"
    # the root X is id 0, so the other X nodes take ids 2..DEEP
    assert nodes_at_depth(tree, DEEP + 2) == [DEEP + 2, DEEP + 4, DEEP + 6]
    assert to_bracketed(tree) == text
    leaf = nodes_at_depth(tree, DEEP + 2)[0]
    assert render(remove_subtree(tree, leaf)) == ", tree"
    assert subtree_leaves(tree.node(DEEP)) == list(tree.leaves)
    assert (tree.node(DEEP + 3).lo, tree.node(DEEP + 3).hi) == (1, 2)


def test_deep_unclosed_bracket_reports_its_opening():
    # 1,200 constituents open; the innermost one left open starts at offset 3600
    text = "(A " * 1200 + "(B (C x)"
    with pytest.raises(UnbalancedError, match="unclosed '\\(' opened at offset 3600") as exc:
        parse_bracketed(text)
    assert exc.value.position == text.index("(B") == 3600


def test_deep_tree_compares_hashes_and_prints_without_recursion():
    text = "(X " * 2000 + "(NN deep)" + ")" * 2000
    tree, again = parse_bracketed(text), parse_bracketed(text)
    assert tree == tree and tree != again  # identity, not structure
    assert tree.root == tree.root and tree.root != again.root
    assert len({tree, again, tree.root, again.root}) == 4
    assert repr(tree.root) == "ParseNode(id=0, label='X', depth=1, children=1)"
    assert repr(tree) == f"ParseTree(root={tree.root!r})"
    assert repr(tree.leaves[0]) == "ParseNode(id=2002, label='deep', depth=2002, children=0)"


def reference_parse_error(text):
    """(class, message, offset) that parse_bracketed raises for text, or None.

    A bracket-balance check over (token, start offset) pairs, each offset
    taken from its own regex match.
    """
    tokens = [(m.group(0), m.start()) for m in re.finditer(r"\(|\)|[^\s()]+", text)]
    if not tokens:
        return DefkitError, "no tree in input", None
    open_at = []
    k = 0
    while k < len(tokens):
        tok, at = tokens[k]
        k += 1
        if tok == "(":
            if k == len(tokens) or tokens[k][0] in "()":
                at = tokens[k][1] if k < len(tokens) else len(text)
                return UnbalancedError, f"expected a constituent label at offset {at}", at
            open_at.append(at)
            k += 1
        elif not open_at:
            if tok == ")":
                return UnbalancedError, f"unmatched ')' at offset {at}", at
            return UnbalancedError, f"stray token {tok!r} at offset {at}", at
        elif tok == ")":
            open_at.pop()
    if open_at:
        return UnbalancedError, f"unclosed '(' opened at offset {open_at[-1]}", open_at[-1]
    return None


@given(st.lists(st.sampled_from(["(", ")", "NP", "dog", " ", "\t\n"]), max_size=40))
@settings(max_examples=500, deadline=None)
def test_errors_name_the_offending_token(pieces):
    text = "".join(pieces)
    expected = reference_parse_error(text)
    if expected is None:
        depth = roots = 0
        for tok in re.findall(r"\(|\)|[^\s()]+", text):
            roots += tok == "(" and depth == 0
            depth += (tok == "(") - (tok == ")")
        assert count_trees(text) == roots
        # the read that skips the check builds the same tree
        checked, unchecked = parse_bracketed(text), parse_bracketed(text, roots)
        fields = lambda tree: [(*n[:5], n.token) for n in tree.nodes.values()]
        assert fields(unchecked) == fields(checked)
        return
    cls, message, offset = expected
    for read in (parse_bracketed, count_trees):
        with pytest.raises(cls) as exc:
            read(text)
        assert type(exc.value) is cls
        assert str(exc.value) == message
        if cls is UnbalancedError:
            assert exc.value.position == offset


def test_regex_space_is_str_isspace_over_every_code_point():
    """The premise of `_lex`: `\\s` matches exactly the characters that
    `str.isspace` accepts, which are the ones `str.split` splits at."""
    space = re.compile(r"\s")
    differ = [
        c for c in map(chr, range(0x110000)) if bool(space.match(c)) != c.isspace()
    ]
    assert differ == []


@given(st.lists(st.sampled_from(["(", ")", "NP", "d", "-LRB-", " ", "\t", "\n", *UNICODE_SPACES])))
@settings(max_examples=500, deadline=None)
def test_lexer_tokens_equal_the_regex_tokens(pieces):
    text = "".join(pieces)
    assert _lex(text) == _LEXER.findall(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(S\u3000(NP a)\u2028)\u3000b", "stray token 'b' at offset 12"),
        ("(S\u2028(NP a))\u3000)", "unmatched ')' at offset 11"),
        ("(S\u3000(\u2028(NP a))", "expected a constituent label at offset 5"),
        ("\u2028(S (NP a)\u3000\u3000(VP", "unclosed '(' opened at offset 12"),
        ("(S (NP a))\u3000(\u2028", "expected a constituent label at offset 13"),
    ],
)
def test_error_offsets_count_unicode_whitespace(text, message):
    """An error names the offset of its token in text, where each Unicode
    space counts as one character, as the tokens' own regex offsets do."""
    assert reference_parse_error(text)[1] == message
    for read in (parse_bracketed, count_trees):
        with pytest.raises(UnbalancedError) as exc:
            read(text)
        assert str(exc.value) == message
        assert exc.value.position == int(message.rsplit(" ", 1)[1])


LABELS = st.sampled_from(TAGS)
TOKENS = st.sampled_from(WORDS + ["-LRB-", "-RRB-", ",", "n't"])
TREES = st.recursive(
    st.one_of(
        st.tuples(LABELS, TOKENS).map(lambda lt: f"({lt[0]} {lt[1]})"),
        LABELS.map("({})".format),  # an empty constituent: a range with no leaf
    ),
    lambda children: st.tuples(LABELS, st.lists(children, min_size=1, max_size=4)).map(
        lambda lc: f"({lc[0]} {' '.join(lc[1])})"
    ),
    max_leaves=30,
)


def _deep(tree, levels):
    return "(X " * levels + tree + ")" * levels


TREE_INPUTS = st.one_of(
    TREES,  # one root
    st.lists(TREES, min_size=2, max_size=4).map(" ".join),  # several, joined under TOP
    st.tuples(TREES, st.integers(200, 3000)).map(lambda t: _deep(*t)),
)


def assert_tree_is_the_walk(tree):
    walked, leaves = walk(tree.root)
    assert list(tree.nodes) == [node.id for node, _, _ in walked]  # pre-order
    assert all(tree.nodes[node.id] is node for node, _, _ in walked)
    assert len(tree.leaves) == len(leaves)
    assert all(a is b for a, b in zip(tree.leaves, leaves))
    assert [(node.lo, node.hi) for node, _, _ in walked] == [(lo, hi) for _, lo, hi in walked]


@given(TREE_INPUTS)
@settings(max_examples=300, deadline=None)
def test_tree_read_equals_the_walk(text):
    """parse_bracketed indexes the nodes and sets their leaf ranges as it
    reads; the walk over the same nodes is the reference."""
    assert_tree_is_the_walk(parse_bracketed(text))


@given(TREE_INPUTS, st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_tree_after_removals_equals_the_walk(text, picks):
    """remove_subtree rebuilds the kept nodes with their leaf ranges closed
    over the cut; after each removal the tree equals the walk over its root."""
    tree = parse_bracketed(text)
    for pick in picks:
        candidates = [node.id for node in tree.nodes.values() if node.id != tree.root.id]
        if not candidates:
            break
        tree = remove_subtree(tree, candidates[pick % len(candidates)])
        assert_tree_is_the_walk(tree)


def test_nodes_are_immutable_tuples_without_a_dict():
    tree = parse_bracketed(CAT_TREE)
    node = tree.root
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.label = "NP"
    twin = ParseNode(*node)
    assert tuple(twin) == tuple(node)
    assert twin != node and not twin == node
    leaf = tree.leaves[0]
    assert leaf != ParseNode(*leaf)
