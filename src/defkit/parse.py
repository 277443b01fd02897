"""Bracketed constituency trees: reading, nodes by depth, subtree removal,
detokenized re-rendering, and the offsets of leaves in a text. A tree is
its nodes, and each node carries the range of its leaves.

Depth convention: the root sits at depth 1 and token nodes count as nodes
one level below their preterminal, so leaves are traversable candidates for
the compression search.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

from .errors import DefkitError, InvariantError, UnbalancedError

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


# Nodes and trees are tuples, so they carry no __dict__, but they compare
# and hash by identity, and their reprs stop at a node's own fields: the
# tuple's would recurse through children, which fails on deep trees.
class ParseNode(NamedTuple):
    id: int
    label: str
    depth: int
    lo: int  # its leaves are tree.leaves[lo:hi]
    hi: int
    children: tuple["ParseNode", ...]
    token: str | None  # literal form, escapes resolved (leaves only)

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


class ParseTree(NamedTuple):
    """A tree: its root, every node by id in pre-order, and its leaves left
    to right, as `parse_bracketed` and `remove_subtree` make them."""

    root: ParseNode
    nodes: dict[int, ParseNode]
    leaves: tuple[ParseNode, ...]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"ParseTree(root={self.root!r})"

    def node(self, node_id: int) -> ParseNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise InvariantError(f"no node with id {node_id}")

    @property
    def source_tokens(self) -> list[str]:
        return [leaf.token for leaf in self.leaves]

    @property
    def depth(self) -> int:
        return max(node.depth for node in self.nodes.values())


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

    Raises DefkitError if text holds no token, and UnbalancedError naming the
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
        raise DefkitError("no tree in input")
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
    value; a leaf's label is the token as read.

    Ids are handed out in pre-order from 1; the root takes id 0, so a lone
    top-level tree leaves id 1 unused. Each node's leaf range is set as it
    is read, so no traversal walks the tree again.

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
    new = tuple.__new__  # a ParseNode without the generated __new__'s argument handling
    nodes: dict[int, ParseNode | None] = {}
    leaves: list[ParseNode] = []
    if not single:
        nodes[0] = None
    roots: list[ParseNode] = []
    # one entry per open constituent: (id, label, its first leaf, children)
    open_nodes: list[tuple[int, str, int, list[ParseNode]]] = []
    kids = roots  # the children of the innermost open constituent
    depth = 1 if single else 2  # the depth of the next node, one below that constituent
    next_id = 1
    lexemes = iter(tokens)
    for tok in lexemes:
        if tok == "(":
            node_id = next_id if depth > 1 else 0  # a lone top-level tree is the root
            next_id += 1
            nodes[node_id] = None  # its pre-order slot, filled at its ')'
            kids = []
            open_nodes.append((node_id, next(lexemes), len(leaves), kids))
            depth += 1
        elif tok == ")":
            depth -= 1
            node_id, label, lo, children = open_nodes.pop()
            node = new(ParseNode, (node_id, label, depth, lo, len(leaves), tuple(children), None))
            nodes[node_id] = node
            kids = open_nodes[-1][3] if open_nodes else roots
            kids.append(node)
        else:
            lo = len(leaves)
            leaf = new(ParseNode, (next_id, tok, depth, lo, lo + 1, (), PTB_ESCAPES.get(tok, tok)))
            nodes[next_id] = leaf
            leaves.append(leaf)
            kids.append(leaf)
            next_id += 1
    if single:
        root = roots[0]
    else:
        root = nodes[0] = ParseNode(0, SYNTHETIC_ROOT_LABEL, 1, 0, len(leaves), tuple(roots), None)
    return ParseTree(root, nodes, tuple(leaves))


def nodes_at_depth(tree: ParseTree, d: int) -> list[int]:
    """Node ids at layer d, in left-to-right span order."""
    if d < 1 or d > tree.depth:
        raise InvariantError(f"depth {d} outside 1..{tree.depth}")
    return [node.id for node in tree.nodes.values() if node.depth == d]


def remove_subtree(tree: ParseTree, node_id: int) -> ParseTree:
    """Return a new tree without the given node's subtree.

    Internal nodes left with no leaf descendants are pruned; surviving nodes
    keep their ids and depths, and their leaf ranges close over the cut.
    The original tree is unchanged.
    """
    removed = tree.node(node_id)  # an unknown id raises InvariantError
    if removed.id == tree.root.id:
        raise InvariantError("cannot remove the root node")
    lo, hi = removed.lo, removed.hi
    cut = hi - lo  # a kept node's bounds lie at or before lo, or at or past hi
    kept: dict[int, ParseNode] = {}
    for node in reversed(tree.nodes.values()):  # every child before its parent
        if node.is_leaf:
            if lo <= node.lo < hi:
                continue
            children = ()
        else:
            children = tuple(kept[c.id] for c in node.children if c.id in kept)
            if not children and node.id != tree.root.id:  # emptied internal nodes go
                continue
        a, b = node.lo, node.hi
        kept[node.id] = ParseNode(
            node.id, node.label, node.depth, a - cut if a > lo else a, b - cut if b > lo else b,
            children, node.token,
        )
    nodes = dict(reversed(kept.items()))
    return ParseTree(kept[tree.root.id], nodes, tuple(n for n in nodes.values() if n.is_leaf))


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
