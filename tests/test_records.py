"""Every frozen value class keeps the dataclass contract.

The classes are found by scanning the package's modules, so a new record
fails here until it has a sample below.  Each sample gives every field a
value other than its default.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import decoyqkd
from decoyqkd import ObservedRates, ParameterError, decompose
from decoyqkd.errors import _frozen

RATES = ObservedRates(1e-6, 1e-3, 1.5e-3)
TIME = decoyqkd.AcquisitionTime(86_400.0, 1.0)

SAMPLES = {
    "AcquisitionTime": (3600.0, 3600.0 / 86_400.0),
    "BoundReport": (0.25, 1e-4, 2e-4, "wang_asymptotic", True, True),
    "DecompositionCoefficients": (0.74, 0.22, 0.64, 0.29, 0.86, 0.037, 1.9),
    "FeasibilityReport": (1e-4, 1e-3, 1e14, TIME, 1e-8, 1e-6, False),
    "FluctuationSettings": (9.0,),
    "KeyRateInput": (0.2, 0.03),
    "NoEve": (1e-3, 1e-6),
    "ObservedRates": (1e-6, 1e-3, 1.5e-3),
    "PairValidity": (False, "mu must be positive, got 0"),
    "PnsAttack": (0.5, 1e-6),
    "ProtocolParams": (0.3, 0.45),
    "PulseBudget": (10**6, 2 * 10**6, 5),
    "SimulatedObservation": (RATES, 1000, 1500, 1),
    "Table1Row": ("delta_w2", 0.3, 0.45, 0.12, 0.125),
    "WeakDecoySetup": (1e-4, 1e-6, 5e-5, 1e8, 20.0),
    "YieldTable": (1e-6, (0.1, 0.5, 1.0)),
}


def _records():
    found = {}
    for info in pkgutil.iter_modules(decoyqkd.__path__):
        module = importlib.import_module(f"decoyqkd.{info.name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
            ):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


RECORDS = _records()


def test_every_record_has_a_sample():
    assert sorted(cls.__qualname__ for cls in RECORDS) == sorted(SAMPLES)


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__qualname__)
def record(request):
    cls = request.param
    args = SAMPLES[cls.__qualname__]
    kwargs = {f.name: value for f, value in zip(dataclasses.fields(cls), args)}
    return cls, args, kwargs


def test_signature_lists_the_fields(record):
    cls, _, _ = record
    assert cls.__dataclass_params__.frozen
    signature = inspect.signature(cls)
    expected = [
        inspect.Parameter(
            f.name,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            default=inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
            annotation=f.type,
        )
        for f in dataclasses.fields(cls)
    ]
    assert list(signature.parameters.values()) == expected
    assert signature.return_annotation is None
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def test_position_and_keyword_build_equal_records(record):
    cls, args, kwargs = record
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    for f in dataclasses.fields(cls):
        assert getattr(by_keyword, f.name) == kwargs[f.name]


def test_missing_or_extra_argument_is_a_type_error(record):
    cls, args, kwargs = record
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    for name in required:
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{name}'"):
            cls(**{key: value for key, value in kwargs.items() if key != name})
    with pytest.raises(TypeError, match="positional argument"):
        cls(*args, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**kwargs, extra=None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*args, **{dataclasses.fields(cls)[0].name: args[0]})


def test_fields_are_frozen(record):
    cls, args, _ = record
    instance = cls(*args)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, f.name, getattr(instance, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.extra = None


def test_repr_names_every_field(record):
    cls, args, kwargs = record
    shown = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(*args)) == f"{cls.__qualname__}({shown})"


def test_copies_round_trip(record):
    cls, args, _ = record
    instance = cls(*args)
    assert dataclasses.replace(instance) == instance
    assert dataclasses.astuple(instance) == dataclasses.astuple(cls(*args))
    for clone in (
        copy.copy(instance),
        copy.deepcopy(instance),
        pickle.loads(pickle.dumps(instance, pickle.HIGHEST_PROTOCOL)),
    ):
        assert type(clone) is cls
        assert clone == instance and hash(clone) == hash(instance)
        assert vars(clone) == vars(instance)


def test_records_share_the_methods_of_errors():
    # _frozen installs one repr, eq, hash, setattr and delattr on every
    # record, where dataclass would generate five methods per record.
    for name in ("__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        shared = {vars(cls)[name] for cls in RECORDS}
        assert len(shared) == 1
        assert shared.pop().__module__ == "decoyqkd.errors"
    for cls in RECORDS:
        instance = cls(*SAMPLES[cls.__qualname__])
        first = dataclasses.fields(cls)[0].name
        frozen = dataclasses.FrozenInstanceError
        with pytest.raises(frozen, match=f"^cannot assign to field '{first}'$"):
            setattr(instance, first, None)
        with pytest.raises(frozen, match="^cannot delete field 'extra'$"):
            del instance.extra
        assert instance.__eq__(dataclasses.astuple(instance)) is NotImplemented
    observation = decoyqkd.SimulatedObservation(RATES, 1000, 1500, 1)
    assert repr(observation) == (
        "SimulatedObservation(rates=ObservedRates(s0=1e-06, s_mu=0.001, s_mu_prime=0.0015), "
        "clicks_mu=1000, clicks_mu_prime=1500, clicks_vacuum=1)"
    )


def test_undocumented_record_is_refused():
    class Plain:
        count: int
        label: str = "x"

    with pytest.raises(TypeError, match="^Plain: a record needs a docstring of its own$"):
        _frozen(Plain)


def test_replace_runs_validation_again():
    with pytest.raises(ParameterError, match="s_mu must lie in"):
        dataclasses.replace(RATES, s_mu=2.0)
    params = decoyqkd.ProtocolParams(0.3, 0.45)
    # The decomposition is formed again for the new pair.
    moved = dataclasses.replace(params, mu_prime=0.5)
    assert decompose(moved) == decompose(decoyqkd.ProtocolParams(0.3, 0.5))
    assert decompose(moved) != decompose(params)
