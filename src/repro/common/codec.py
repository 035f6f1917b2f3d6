"""One schema-versioned JSON codec for the library's dataclasses.

Every result, spec and descriptor class that persists or ships as JSON
inherits :class:`Codec`, which gives it ``to_dict``/``from_dict`` and
``to_json``/``from_json``.  A payload is the class's dataclass fields,
name -> value, plus two tags:

* ``schema_version`` — the :data:`RESULT_SCHEMA_VERSION` that wrote it.
  Readers reject newer payloads and accept older ones; a payload without
  the tag is version 1.
* ``kind`` — written only for classes that declare a ``kind`` class tag.
  It picks the concrete class when a field holds a union of classes, or
  when a payload is decoded through a base class (``RunResult.from_dict``).

A class may also name *derived* payload keys (``derived_keys``): views
computed by the same-named method on encode and skipped on decode, so a
stored artifact answers queries without re-deriving them while the fields
stay the only state.  A class whose layout changed defines
``upgrade_payload(data, version)``, which turns an older payload into the
current layout before decoding.

Decoding is strict.  An unknown key, a missing required field, a value of
the wrong shape and a newer schema version all raise
:class:`~repro.common.errors.ConfigurationError`.

How each field converts is planned once per class from its declared type
(:func:`typing.get_type_hints`), so neither direction inspects sequence
elements one at a time: ``Tuple[float, ...]`` is one ``list()`` /
``tuple()`` call, ``NDArray[np.float64]`` one ``.tolist()`` /
``np.asarray(..., dtype=np.float64)``, and only containers of nested
dataclasses, enums or arrays map a planned converter over their items.
``Dict[int, ...]`` keys travel as strings.

``NDArray[np.int64]`` fields are count arrays, mostly zeros: they travel as
row spans (:func:`encode_spans`), and the dense nested lists of schema <= 4
payloads still decode.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import operator
import typing
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    cast,
)

import numpy as np
from numpy.typing import NDArray

from repro.common.errors import ConfigurationError

#: Version of every codec payload layout.  Bump when a payload gains or
#: renames fields; readers reject payloads written by a *newer* version
#: instead of silently misparsing them, and keep reading older ones.
#: Version 2 added the derived ``summary`` block of dynamic-run payloads;
#: version 3 made dynamic-run traces columnar (float and int8-code arrays,
#: ``times_s`` derived from the time step); version 4 stores a dynamic
#: run's frequencies as int8 codes into a per-run level table; version 5
#: stores int64 count arrays as row spans.
RESULT_SCHEMA_VERSION = 5

#: Payload keys the codec owns; no planned class may use them as fields.
TAG_KEYS = ("kind", "schema_version")

#: A field converter; ``None`` passes the value through unchanged.
Converter = Optional[Callable[[Any], Any]]

T = TypeVar("T")
C = TypeVar("C", bound="Codec")

_TYPES: Dict[str, type] = {}
_KINDS: Dict[str, type] = {}
_PLANS: Dict[type, "_Plan"] = {}


def check_schema(data: Mapping[str, Any], what: str) -> int:
    """The schema version of a payload; rejects one newer than this library."""
    version = data.get("schema_version", 1)
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or version > RESULT_SCHEMA_VERSION
    ):
        raise ConfigurationError(
            f"{what} payload has schema version {version!r}, newer than "
            f"this library understands (<= {RESULT_SCHEMA_VERSION})"
        )
    return version


# -- planning --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Plan:
    """How one dataclass maps to and from its payload."""

    kind: str
    fields: Tuple[Tuple[str, Converter, Converter], ...]
    names: Tuple[str, ...]
    required: FrozenSet[str]
    known: FrozenSet[str]
    derived: Tuple[str, ...]


def _qualified(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _kind_of(cls: type) -> str:
    kind = getattr(cls, "kind", "")
    return kind if isinstance(kind, str) else ""


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _build_plan(cls)
    return plan


def _build_plan(cls: type) -> _Plan:
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(
            f"{cls.__name__} is not a dataclass; the codec plans dataclass "
            "payloads only"
        )
    hints = typing.get_type_hints(cls)
    fields = [field for field in dataclasses.fields(cls) if field.init]
    names = tuple(field.name for field in fields)
    clashes = sorted(set(names) & set(TAG_KEYS))
    if clashes:
        raise ConfigurationError(
            f"{cls.__name__} field(s) {clashes} collide with the codec's "
            "payload tags"
        )
    derived = tuple(getattr(cls, "derived_keys", ()))
    return _Plan(
        kind=_kind_of(cls),
        fields=tuple(
            (field.name, *_converters(hints[field.name], cls)) for field in fields
        ),
        names=names,
        required=frozenset(
            field.name
            for field in fields
            if field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ),
        known=frozenset((*names, *TAG_KEYS, *derived)),
        derived=derived,
    )


def _same(value: Any) -> Any:
    return value


def _tolist(array: Any) -> Any:
    return array.tolist()


def _listed(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: [convert(item) for item in value]


def _tupled(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: tuple([convert(item) for item in value])


def _or_none(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


def _keyed(
    key: Callable[[Any], Any], convert: Callable[[Any], Any]
) -> Callable[[Any], Any]:
    return lambda value: {key(k): convert(item) for k, item in value.items()}


def _converters(tp: Any, owner: type) -> Tuple[Converter, Converter]:
    """The (encode, decode) converters of one declared field type."""
    if tp is Any or tp in (str, int, float, bool, type(None)):
        return None, None
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is typing.Union:
        return _union_converters(args, owner)
    if origin is tuple:
        return _tuple_converters(args, owner)
    if origin is dict:
        return _mapping_converters(args, owner)
    if origin is np.ndarray:
        (dtype,) = typing.get_args(args[1])
        if dtype is np.int64:
            return encode_spans, decode_spans
        return _tolist, lambda value: np.asarray(value, dtype=dtype)
    if isinstance(tp, type):
        if issubclass(tp, enum.Enum):
            return _enum_converters(tp)
        if dataclasses.is_dataclass(tp) or issubclass(tp, Codec):
            return encode, lambda value: decode(tp, value)
    raise ConfigurationError(
        f"{owner.__name__}: the codec cannot plan a payload for type {tp!r}"
    )


def _union_converters(
    args: Tuple[Any, ...], owner: type
) -> Tuple[Converter, Converter]:
    members = [arg for arg in args if arg is not type(None)]
    planned = [_converters(member, owner) for member in members]
    if all(enc is None and dec is None for enc, dec in planned):
        return None, None
    if len(members) == 1:
        enc, dec = planned[0]
        enc, dec = enc or _same, dec or _same
    else:
        if not all(
            isinstance(member, type) and dataclasses.is_dataclass(member)
            for member in members
        ):
            raise ConfigurationError(
                f"{owner.__name__}: unions must be of dataclasses, got {args!r}"
            )
        by_kind = {_kind_of(m): m for m in members if _kind_of(m)}
        untagged = [m for m in members if not _kind_of(m)]
        if len(untagged) > 1:
            raise ConfigurationError(
                f"{owner.__name__}: union members {untagged!r} declare no "
                "kind tag, so their payloads are indistinguishable"
            )
        fallback = untagged[0] if untagged else None

        def decode_union(value: Any) -> Any:
            target = by_kind.get(value.get("kind"), fallback)
            if target is None:
                raise ConfigurationError(
                    f"{owner.__name__}: payload kind {value.get('kind')!r} "
                    f"is none of {sorted(by_kind)}"
                )
            return decode(target, value)

        enc, dec = encode, decode_union
    if len(members) < len(args):
        return _or_none(enc), _or_none(dec)
    return enc, dec


def _tuple_converters(
    args: Tuple[Any, ...], owner: type
) -> Tuple[Converter, Converter]:
    if len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _converters(args[0], owner)
        if enc is None and dec is None:
            return list, tuple
        return _listed(enc or _same), _tupled(dec or _same)
    planned = [_converters(arg, owner) for arg in args]
    if all(enc is None and dec is None for enc, dec in planned):
        return list, tuple
    encoders = [enc or _same for enc, _ in planned]
    decoders = [dec or _same for _, dec in planned]

    def encode_fixed(value: Any) -> List[Any]:
        return [e(item) for e, item in zip(encoders, value)]

    def decode_fixed(value: Any) -> Tuple[Any, ...]:
        if len(value) != len(decoders):
            raise ConfigurationError(
                f"{owner.__name__}: expected {len(decoders)} items, "
                f"got {len(value)}"
            )
        return tuple([d(item) for d, item in zip(decoders, value)])

    return encode_fixed, decode_fixed


def _mapping_converters(
    args: Tuple[Any, ...], owner: type
) -> Tuple[Converter, Converter]:
    key_type, value_type = args
    enc, dec = _converters(value_type, owner)
    if key_type is str:
        if enc is None and dec is None:
            return dict, dict
        return _keyed(_same, enc or _same), _keyed(_same, dec or _same)
    if key_type is int:
        return _keyed(str, enc or _same), _keyed(int, dec or _same)
    raise ConfigurationError(
        f"{owner.__name__}: mapping keys must be str or int, got {key_type!r}"
    )


def _enum_converters(tp: Type[enum.Enum]) -> Tuple[Converter, Converter]:
    def dec(value: Any) -> enum.Enum:
        try:
            return tp(value)
        except ValueError:
            raise ConfigurationError(
                f"unknown {tp.__name__} value {value!r}; expected one of "
                f"{[member.value for member in tp]}"
            ) from None

    return operator.attrgetter("value"), dec


# -- count arrays as row spans ---------------------------------------------------------


class _MalformedValue(ConfigurationError):
    """A field value of the wrong shape; :func:`decode` names the field."""


_SPAN_KEYS = frozenset(("shape", "starts", "stops", "counts"))


def _span_mask(starts: np.ndarray, stops: np.ndarray, width: int) -> np.ndarray:
    """The ``(rows, width)`` mask of the entries inside each row's span."""
    columns = np.arange(width)
    return (columns >= starts[:, None]) & (columns < stops[:, None])


def encode_spans(array: np.ndarray) -> Dict[str, Any]:
    """An integer count array as row spans: ``{"shape", "starts", "stops",
    "counts"}``.

    The last axis is the row.  Row *i* keeps ``[starts[i], stops[i])``, from
    its first non-zero entry to its last (``[0, 0)`` when it is all zeros),
    and ``counts`` holds those in-span entries, concatenated row by row.
    """
    shape = array.shape
    width = shape[-1]
    matrix = array.reshape(math.prod(shape[:-1]), width)
    nonzero = matrix != 0
    if width:
        occupied = nonzero.any(axis=1)
        starts = np.where(occupied, nonzero.argmax(axis=1), 0)
        stops = np.where(occupied, width - nonzero[:, ::-1].argmax(axis=1), 0)
    else:
        starts = stops = np.zeros(len(matrix), dtype=np.int64)
    return {
        "shape": list(shape),
        "starts": starts.tolist(),
        "stops": stops.tolist(),
        "counts": matrix[_span_mask(starts, stops, width)].tolist(),
    }


def decode_spans(value: Any) -> NDArray[np.int64]:
    """The int64 array of :func:`encode_spans` output, or of a dense nested
    list (the form schema <= 4 payloads hold)."""
    if not isinstance(value, Mapping):
        return np.asarray(value, dtype=np.int64)
    if value.keys() != _SPAN_KEYS:
        raise _MalformedValue(
            f"row spans need the keys {sorted(_SPAN_KEYS)}, got {sorted(value)}"
        )
    shape = tuple(operator.index(size) for size in value["shape"])
    if not shape or min(shape) < 0:
        raise _MalformedValue(
            f"span shape {list(shape)} needs one or more non-negative dimensions"
        )
    rows, width = math.prod(shape[:-1]), shape[-1]
    starts = np.asarray(value["starts"], dtype=np.int64)
    stops = np.asarray(value["stops"], dtype=np.int64)
    if starts.shape != (rows,) or stops.shape != (rows,):
        raise _MalformedValue(
            f"span starts {starts.shape} and stops {stops.shape} need one "
            f"entry per row ({rows})"
        )
    if (starts < 0).any() or (stops < starts).any():
        raise _MalformedValue("every span needs 0 <= start <= stop")
    if (stops > width).any():
        raise _MalformedValue(f"a span stops past the row width {width}")
    counts = np.asarray(value["counts"], dtype=np.int64)
    inside = int((stops - starts).sum())
    if counts.shape != (inside,):
        raise _MalformedValue(
            f"spans hold {inside} in-span count(s), got counts of shape "
            f"{counts.shape}"
        )
    matrix = np.zeros((rows, width), dtype=np.int64)
    matrix[_span_mask(starts, stops, width)] = counts
    return matrix.reshape(shape)


# -- encode / decode -------------------------------------------------------------------

#: What a converter raises on a value of the wrong shape.
_MALFORMED = (
    TypeError,
    ValueError,
    AttributeError,
    KeyError,
    OverflowError,
    _MalformedValue,
)


def encode(obj: Any, omit: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """The JSON-safe payload of one dataclass instance, less the *omit* fields."""
    plan = _plan(type(obj))
    payload: Dict[str, Any] = {"schema_version": RESULT_SCHEMA_VERSION}
    if plan.kind:
        payload["kind"] = plan.kind
    for name, enc, _ in plan.fields:
        if name in omit:
            continue
        value = getattr(obj, name)
        payload[name] = value if enc is None else enc(value)
    for key in plan.derived:
        payload[key] = getattr(obj, key)()
    return payload


def decode(cls: Type[T], data: Any) -> T:
    """Rebuild an instance of *cls*, or of the subclass its ``kind`` names."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{cls.__name__} payload must be a JSON object, got "
            f"{type(data).__name__}"
        )
    version = check_schema(data, cls.__name__)
    target: type = cls
    tag = data.get("kind")
    if tag is not None:
        tagged = _KINDS.get(tag) if isinstance(tag, str) else None
        if tagged is None or not issubclass(tagged, cls):
            kinds = sorted(k for k, c in _KINDS.items() if issubclass(c, cls))
            raise ConfigurationError(
                f"unknown {cls.__name__} kind {tag!r}; expected one of {kinds}"
            )
        target = tagged
    upgrade = getattr(target, "upgrade_payload", None)
    if upgrade is not None and version < RESULT_SCHEMA_VERSION:
        try:
            data = upgrade(data, version)
        except _MALFORMED as error:
            raise ConfigurationError(
                f"malformed {target.__name__} schema-{version} payload: {error}"
            ) from None
    plan = _plan(target)
    unknown = data.keys() - plan.known
    if unknown:
        raise ConfigurationError(
            f"unknown {target.__name__} field(s) {sorted(unknown)} in payload; "
            f"valid fields: {list(plan.names)}"
        )
    missing = plan.required - data.keys()
    if missing:
        raise ConfigurationError(
            f"{target.__name__} payload is missing required field(s) "
            f"{sorted(missing)}"
        )
    kwargs: Dict[str, Any] = {}
    name = ""
    try:
        for name, _, dec in plan.fields:
            if name in data:
                value = data[name]
                kwargs[name] = value if dec is None else dec(value)
    except _MALFORMED as error:
        raise ConfigurationError(
            f"malformed {target.__name__} payload field {name!r}: {error}"
        ) from None
    return cast(T, target(**kwargs))


# -- the mixin -------------------------------------------------------------------------


class Codec:
    """Gives a dataclass its payload methods through the shared codec.

    Every subclass joins :func:`registered_types`; one that declares a
    ``kind`` class tag also becomes reachable from ``kind``-dispatching
    decodes.
    """

    #: Payload keys computed by the same-named zero-argument method on
    #: encode and ignored on decode.
    derived_keys: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        name = _qualified(cls)
        kind = cls.__dict__.get("kind")
        if isinstance(kind, str) and kind:
            known = _KINDS.get(kind)
            if known is not None and _qualified(known) != name:
                raise ConfigurationError(
                    f"kind {kind!r} of {name} is already taken by "
                    f"{_qualified(known)}"
                )
            _KINDS[kind] = cls
        _TYPES[name] = cls

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload: the fields plus the codec's tags."""
        return encode(self)

    @classmethod
    def from_dict(cls: Type[C], data: Mapping[str, Any]) -> C:
        """Rebuild an instance from a :meth:`to_dict` payload."""
        return decode(cls, data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """This instance as a canonical JSON document."""
        return json.dumps(encode(self), indent=indent, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls: Type[C], text: str) -> C:
        """Rebuild an instance from :meth:`to_json` output."""
        return decode(cls, json.loads(text))


def registered_types() -> List[type]:
    """Every imported :class:`Codec` dataclass, ordered by qualified name."""
    return [cls for _, cls in sorted(_TYPES.items()) if dataclasses.is_dataclass(cls)]
