"""Records: frozen classes whose annotated fields an `__init__` sets,
compared and hashed by value and shown as `Name(field=value, ...)`.

`record` stands in for the parts of `dataclasses.dataclass(frozen=True)`
that defkit uses. It builds no code: every method is a closure over the
class's field names, so a module of records imports without `dataclasses`,
`inspect` or an `exec` per class. Instances keep `__dict__`, where `vars`
finds them. Assigning to or deleting an attribute raises AttributeError,
as it does on a `NamedTuple`.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__  # sets a field past the record's __setattr__


def record(cls):
    """Make `cls` a record, as `@dataclass(frozen=True)` does: fields
    without a default come first, and `__post_init__` runs last."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    n = len(names)
    template = {name: cls.__dict__.get(name) for name in names}  # every field, in order
    required = n - sum(name in cls.__dict__ for name in names)
    known = frozenset(names)
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__

    def bind(args, kwargs):
        """Each field and its value, in order, for any call; a call that a
        function with the fields for parameters would refuse raises TypeError."""
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} arguments but {len(args)} were given")
        for k in kwargs:
            if k not in known:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {k!r}")
            if k in names[: len(args)]:
                raise TypeError(f"{qualname}() got multiple values for argument {k!r}")
        missing = [k for k in names[len(args) : required] if k not in kwargs]
        if missing:
            raise TypeError(f"{qualname}() missing required arguments: {', '.join(missing)}")
        return (template | dict(zip(names, args)) | kwargs).items()

    def __init__(self, *args, **kwargs):
        # The usual calls give every field, by position or by keyword in
        # order; bind checks any other call. Each field is set with
        # object.__setattr__, as a dataclass's generated __init__ sets it:
        # writing to self.__dict__ instead would make CPython build a dict
        # per instance, which reads attributes slower and takes more memory.
        if not kwargs and len(args) == n:
            items = zip(names, args)
        elif not args and tuple(kwargs) == names:
            items = kwargs.items()
        else:
            items = bind(args, kwargs)
        for name, value in items:
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({pairs})"

    # as @dataclass: a tuple of the fields, a one-tuple for one field
    key = attrgetter(*names) if n > 1 else lambda self: (getattr(self, names[0]),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls
