"""One cache for derived structures: each is built on first use and kept on
the object it was derived from, under a fixed private attribute name."""

import functools

_MISSING = object()


def memo(attr):
    """Decorate fn(obj) to build its value once and keep it as ``obj.<attr>``.
    Only attribute access is used: on CPython 3.11, reading ``obj.__dict__``
    would slow every later attribute read on obj."""
    def decorate(fn):
        @functools.wraps(fn)
        def cached(obj):
            value = getattr(obj, attr, _MISSING)
            if value is _MISSING:
                value = fn(obj)
                setattr(obj, attr, value)
            return value
        return cached
    return decorate
