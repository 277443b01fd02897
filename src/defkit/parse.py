"""Bracketed constituency trees: reading, layer traversal, subtree removal,
detokenized re-rendering, and the offsets of leaves in a text.

Depth convention: the root sits at depth 1 and token nodes count as nodes
one level below their preterminal, so leaves are traversable candidates for
the compression search.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

from ._record import record
from .errors import (
    DepthError,
    EmptyError,
    RootRemovalError,
    UnbalancedError,
    UnknownNodeError,
)

SYNTHETIC_ROOT_LABEL = "TOP"

PTB_ESCAPES = {
    "-LRB-": "(",
    "-RRB-": ")",
    "-LSB-": "[",
    "-RSB-": "]",
    "-LCB-": "{",
    "-RCB-": "}",
}

# tokens that glue to the preceding word when detokenizing
_ATTACH_LEFT = set(".,;:!?')]%") | {"'s", "n't", "'re", "'ve", "'ll", "'d", "'m"}
_ATTACH_RIGHT = set("([$")


# Nodes are tuples, so they carry no __dict__, but they compare and hash by
# identity (so a tree, a record of its root, does too), and a node's repr
# stops at its own fields: the tuple's would recurse through children, which
# fails on deep trees.
class ParseNode(NamedTuple):
    id: int
    label: str
    depth: int
    children: tuple["ParseNode", ...] = ()
    token: str | None = None  # literal form, escapes resolved (leaves only)
    raw: str | None = None  # original token text as read (leaves only)

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"ParseNode(id={self.id}, label={self.label!r}, depth={self.depth}, "
            f"children={len(self.children)})"
        )

    @property
    def is_leaf(self) -> bool:
        return self.token is not None


class _Layout(NamedTuple):
    index: dict[int, ParseNode]  # every node by id, in pre-order
    leaves: list[ParseNode]  # left to right
    ranges: dict[int, tuple[int, int]]  # node id -> [lo, hi): its leaves are leaves[lo:hi]
    layers: dict[int, list[int]]  # depth -> node ids, left to right


@record
class ParseTree:
    """A tree and its layout, which every traversal reads. `_tree` sets the
    layout from the code that makes the tree: `_read` fills it as it reads,
    and `remove_subtree` derives it from the layout of the tree it prunes."""

    root: ParseNode

    def node(self, node_id: int) -> ParseNode:
        try:
            return self._layout.index[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node with id {node_id}")

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._layout.index

    def constituents(self) -> list[tuple[ParseNode, int, int]]:
        """(node, lo, hi) of every internal node, in pre-order, where the
        node's leaves are leaves()[lo:hi]."""
        ranges = self._layout.ranges
        return [
            (node, *ranges[node.id]) for node in self._layout.index.values() if node.token is None
        ]

    def leaves(self) -> list[ParseNode]:
        return list(self._layout.leaves)

    def leaf_range(self, node_id: int) -> tuple[int, int]:
        """[lo, hi) such that the node's leaves are leaves()[lo:hi]."""
        return self._layout.ranges[self.node(node_id).id]

    @property
    def source_tokens(self) -> list[str]:
        return [leaf.token for leaf in self._layout.leaves]

    @property
    def depth(self) -> int:
        return max(self._layout.layers)


def _tree(root: ParseNode, layout: _Layout) -> ParseTree:
    """The tree of root, with the layout of its nodes."""
    tree = ParseTree(root)
    object.__setattr__(tree, "_layout", layout)  # past the record's frozen __setattr__
    return tree


_LEXER = re.compile(r"\(|\)|[^\s()]+")  # the tokens of `_lex`, with their offsets


def _lex(text: str) -> list[str]:
    """The tokens of text: "(", ")", and the runs of other characters that
    whitespace separates. `str.split` splits at the `str.isspace`
    characters, which are the ones `\\s` matches, so these are the tokens
    `_LEXER` finds, split out in C."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _unbalanced(text: str, k: int, what: str) -> UnbalancedError:
    """The error for the k-th lexer token of text, or for the end past the last one."""
    match = next(islice(_LEXER.finditer(text), k, None), None)
    at = match.start() if match else len(text)
    return UnbalancedError(f"{what} at offset {at}", position=at)


def count_trees(text: str) -> int:
    """How many top-level trees text holds, once it is known to hold one or
    more bracketed trees.

    Raises EmptyError if text holds no token, and UnbalancedError naming the
    offset of the offending token if the tokens are not one or more
    bracketed trees.
    """
    return _check(text)[1]


def _check(text: str) -> tuple[list[str], int]:
    """The lexer tokens of text and how many top-level trees they hold,
    once `count_trees` accepts them."""
    # Offsets are only needed for error messages; they are found again then.
    tokens = _lex(text)
    if not tokens:
        raise EmptyError("no tree in input")
    open_at: list[int] = []  # token index of each open '('
    label_at = -1  # token index where a constituent label must stand
    roots = 0
    for k, tok in enumerate(tokens):
        if k == label_at:
            if tok == "(" or tok == ")":
                raise _unbalanced(text, k, "expected a constituent label")
        elif tok == "(":
            roots += not open_at
            open_at.append(k)
            label_at = k + 1
        elif not open_at:
            if tok == ")":
                raise _unbalanced(text, k, "unmatched ')'")
            raise _unbalanced(text, k, f"stray token {tok!r}")
        elif tok == ")":
            open_at.pop()
    if label_at == len(tokens):
        raise _unbalanced(text, label_at, "expected a constituent label")
    if open_at:
        raise _unbalanced(text, open_at[-1], "unclosed '(' opened")
    return tokens, roots


def parse_bracketed(text: str, trees: int | None = None) -> ParseTree:
    """Read a Penn-Treebank-style bracketed expression.

    Multiple top-level trees are joined under a synthetic TOP node. PTB
    escape tokens (-LRB- etc.) are mapped to literal brackets in the token
    value; the raw form is kept for bracketed re-serialization.

    Ids are handed out in pre-order from 1; the root takes id 0, so a lone
    top-level tree leaves id 1 unused. The tree's layout is filled in the
    same pass, so no traversal walks the tree again.

    A caller that has checked text already passes what `count_trees`
    returned for it as `trees`; text is then read without a second check.
    """
    if trees is None:
        tokens, trees = _check(text)
    else:
        tokens = _lex(text)
    return _read(tokens, single=trees == 1)


def _read(tokens: list[str], single: bool) -> ParseTree:
    """The tree of checked tokens; `single` says whether they hold one
    top-level tree, which is the root at depth 1. Several sit at depth 2
    under TOP."""
    top_depth = 1 if single else 2
    new = tuple.__new__  # a ParseNode without the generated __new__'s argument handling
    index: dict[int, ParseNode | None] = {}
    leaves: list[ParseNode] = []
    ranges: dict[int, tuple[int, int]] = {}
    layers: list[list[int]] = [[], []]  # layers[d]: node ids at depth d, left to right
    if not single:
        index[0] = None
        layers[1].append(0)
    roots: list[ParseNode] = []
    # one entry per open constituent: (id, label, its first leaf, children)
    open_nodes: list[tuple[int, str, int, list[ParseNode]]] = []
    kids = roots  # the children of the innermost open constituent
    depth = top_depth  # the depth of the next node, one below that constituent
    n_leaves = 0
    next_id = 1
    lexemes = iter(tokens)
    for tok in lexemes:
        if tok == "(":
            node_id = next_id if depth > 1 else 0  # a lone top-level tree is the root
            next_id += 1
            if depth == len(layers):
                layers.append([])
            layers[depth].append(node_id)
            index[node_id] = None  # its pre-order slot, filled at its ')'
            kids = []
            open_nodes.append((node_id, next(lexemes), n_leaves, kids))
            depth += 1
        elif tok == ")":
            depth -= 1
            node_id, label, lo, children = open_nodes.pop()
            node = new(ParseNode, (node_id, label, depth, tuple(children), None, None))
            index[node_id] = node
            ranges[node_id] = (lo, n_leaves)
            kids = open_nodes[-1][3] if open_nodes else roots
            kids.append(node)
        else:
            if depth == len(layers):
                layers.append([])
            layers[depth].append(next_id)
            leaf = new(ParseNode, (next_id, tok, depth, (), PTB_ESCAPES.get(tok, tok), tok))
            index[next_id] = leaf
            ranges[next_id] = (n_leaves, n_leaves + 1)
            n_leaves += 1
            leaves.append(leaf)
            kids.append(leaf)
            next_id += 1
    if single:
        root = roots[0]
    else:
        root = index[0] = ParseNode(0, SYNTHETIC_ROOT_LABEL, 1, tuple(roots))
        ranges[0] = (0, len(leaves))
    layout = _Layout(index, leaves, ranges, {d: ids for d, ids in enumerate(layers) if ids})
    return _tree(root, layout)


def nodes_at_depth(tree: ParseTree, d: int) -> list[int]:
    """Node ids at layer d, in left-to-right span order."""
    if d < 1 or d > tree.depth:
        raise DepthError(f"depth {d} outside 1..{tree.depth}")
    return list(tree._layout.layers.get(d, ()))


def remove_subtree(tree: ParseTree, node_id: int) -> ParseTree:
    """Return a new tree without the given node's subtree.

    Internal nodes left with no leaf descendants are pruned; surviving nodes
    keep their ids and depths. The original tree is unchanged. The new
    tree's layout is the old one with the pruned nodes and leaves cut out.
    """
    if tree.node(node_id).id == tree.root.id:  # raises UnknownNodeError
        raise RootRemovalError("cannot remove the root node")
    lo, hi = tree.leaf_range(node_id)
    index, leaves, ranges, layers = tree._layout
    kept: dict[int, ParseNode] = {}
    for node in reversed(index.values()):  # every child before its parent
        if node.is_leaf:
            if not lo <= ranges[node.id][0] < hi:
                kept[node.id] = node
            continue
        children = tuple(kept[c.id] for c in node.children if c.id in kept)
        if children or node.id == tree.root.id:  # emptied internal nodes go
            kept[node.id] = ParseNode(
                id=node.id, label=node.label, depth=node.depth, children=children
            )
    cut = hi - lo  # a kept node's bounds lie at or before lo, or at or past hi
    layout = _Layout(
        {i: kept[i] for i in index if i in kept},
        leaves[:lo] + leaves[hi:],
        {i: (a - cut if a > lo else a, b - cut if b > lo else b)
         for i, (a, b) in ranges.items() if i in kept},
        {d: ids for d, old in layers.items() if (ids := [i for i in old if i in kept])},
    )
    return _tree(kept[tree.root.id], layout)


def spelling(token: str, before: str | None) -> str:
    """What token writes into a detokenized text after the token `before`
    (None at the start): the token alone when it attaches left (punctuation,
    contraction pieces) or `before` attaches right (opening brackets, "$"),
    else a space and the token."""
    if before is None or token in _ATTACH_LEFT or before in _ATTACH_RIGHT:
        return token
    return " " + token


def detokenize(tokens: list[str]) -> str:
    """Join tokens with spaces, attaching punctuation and contraction pieces
    to the word before them and opening brackets and "$" to the word after."""
    return "".join(map(spelling, tokens, [None, *tokens]))


def leaf_offsets(tree: ParseTree, text: str) -> list[tuple[int, int]] | None:
    """[start, end) of each leaf's token in text, in leaf order, or None
    unless text is the tokens in order with only whitespace before, between
    and after them (none is needed between, so "don't" holds "do" "n't")."""
    offsets: list[tuple[int, int]] = []
    pos = 0
    for tok in tree.source_tokens:
        # a token holds no whitespace, so find stops at the token's place
        # whenever only whitespace lies before it
        start = text.find(tok, pos)
        if start != pos and (start < 0 or not text[pos:start].isspace()):
            return None
        pos = start + len(tok)
        offsets.append((start, pos))
    return offsets if pos == len(text) or text[pos:].isspace() else None


def render(tree: ParseTree) -> str:
    """Detokenized text of the tree's leaves; empty tree renders ''."""
    return detokenize(tree.source_tokens)
