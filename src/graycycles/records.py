"""The base of the package's immutable result records.

Records are plain classes, not dataclasses, so that no command imports
``dataclasses`` or ``inspect``.  ``graycode``, ``ocycles``, ``views`` and
``existence`` build their records on ``_Record``, and ``codes`` borrows its
refusal to assign; ``words`` and the CLI need none.
"""


class _Record:
    """Base of the immutable result records: fields are the annotated names.

    A class attribute named like a field is its default.  Records are equal
    only within one class, field for field; hash and repr skip ``_hidden``.
    """

    _hidden: tuple[str, ...] = ()
    _fields = _shown = _hidden  # set for each subclass

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))
        cls._shown = tuple(name for name in cls._fields if name not in cls._hidden)

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls, fields = type(self), self._fields
        given = {**dict(zip(fields, args)), **kwargs}
        defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        # Too many, repeated, unknown or missing arguments.
        if len(given) < len(args) + len(kwargs) or {*given, *defaults} != set(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        self.__dict__.update({name: given.get(name, defaults.get(name)) for name in fields})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(vars(self)[name] == vars(other)[name] for name in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(vars(self)[name] for name in self._shown))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={vars(self)[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
