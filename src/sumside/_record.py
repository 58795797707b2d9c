class Record:
    """Base of a frozen value record, built without dataclasses, its imports
    or exec.  Fields are the subclass's annotated names, in order and never
    evaluated, with class attributes as defaults.  The constructor takes them
    by position or keyword, then runs __post_init__ if the class has one.
    Equality, hash and repr go over the fields, as for a frozen dataclass."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields, given = self._fields, dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
            raise TypeError(f"{type(self).__qualname__} takes fields {', '.join(fields)}; "
                            f"got {len(args)} positional and keywords {sorted(kwargs)}")
        self.__dict__.update((f, values[f]) for f in fields)
        if hasattr(self, "__post_init__"):
            self.__post_init__()  # may normalise a field with object.__setattr__

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.__dict__ == other.__dict__ if same else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"


def check_ints(record: Record, names) -> None:
    """Each named field of record must be an int, or None if None is its
    default; bool is rejected, as the JSON readers reject true."""
    for name in names:
        value = getattr(record, name)
        unbounded = value is None and record._defaults.get(name, 0) is None
        if type(value) is not int and not unbounded:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def replace(record: Record, **changes) -> Record:
    """record with changes, rebuilt through the constructor: checks run again."""
    return type(record)(**{**record.__dict__, **changes})
