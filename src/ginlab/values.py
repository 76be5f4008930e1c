"""Frozen values: immutable records that are equal when their fields are.

A subclass of `Frozen` declares its fields as class annotations, in
order, each default as the class attribute of that name, and the fields
with defaults last, as a frozen dataclass does. It gets:

- a constructor that takes the fields positionally or by keyword, fills
  in the defaults, and then calls `__post_init__`, where a subclass
  checks its fields (raising ValueError) or derives one from the others
  with ``object.__setattr__``;
- equality and hashing by the tuple of the fields, between values of
  the same class only;
- a repr that names the fields, unless the subclass defines its own;
- no assignment or deletion after construction: both raise
  `FrozenInstanceError`. A `functools.cached_property` still works, as
  it writes to the instance dict directly.

The methods are plain functions on one base class, so defining a value
class runs no generated code and importing this module imports nothing.
"""

_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen value."""


class Frozen:
    """Base class of the frozen values; see the module docstring."""

    _fields = ()
    _defaults = {}
    _tail = ()

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in names
                         if name in cls.__dict__}
        if tuple(cls._defaults) != names[len(names) - len(cls._defaults):]:
            raise TypeError(f"{cls.__name__}: a field without a default "
                            f"follows one with a default")
        # the defaults of the last fields, which a positional call leaves out
        cls._tail = tuple(cls._defaults.values())

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # not through self.__dict__, which would turn the compact instance
        # attributes into a dict and make every later read slower
        for name, value in zip(names, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The values of all the fields, in order, from the positional and
        keyword arguments of a call and the defaults."""
        names, tail = cls._fields, cls._tail
        if not kwargs and 0 < len(names) - len(args) <= len(tail):
            return args + tail[len(args) - len(names):]
        values = {**cls._defaults, **kwargs}
        values.update(zip(names, args))
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__name__} takes the fields {names}, "
                            f"defaults {cls._defaults}; got {len(args)} "
                            f"positional and {sorted(kwargs)} by keyword")
        return map(values.__getitem__, names)

    def __post_init__(self):
        pass

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
