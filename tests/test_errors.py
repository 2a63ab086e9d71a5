"""The error vocabulary: every rejection in ``src/cssl`` raises a class of
``cssl.errors``, and that module holds one class per way a caller reacts."""

import ast
import glob
import os

import pytest

from cssl import errors
from cssl.config import ExperimentConfig
from cssl.continual import Scenario
from cssl.losses import Method, PnrConfig, Regime

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "cssl")


def test_four_error_classes():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type)}
    assert classes == {"CsslError", "ConfigError", "CorruptFile",
                       "DivergenceDetected"}
    assert issubclass(errors.CsslError, ValueError)
    for name in classes - {"CsslError"}:
        assert getattr(errors, name).__bases__ == (errors.CsslError,)


def test_every_raise_uses_an_errors_class():
    # A bare ``raise`` re-raises; ``raise X(...) from e`` is checked on X.
    stray = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.level == 1 and node.module == "errors"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in imported):
                stray.append(f"{os.path.basename(path)}:{node.lineno}: "
                             f"raise {ast.unparse(node.exc)}")
    assert not stray, "raises outside cssl.errors:\n" + "\n".join(stray)


SCENARIOS = "class_il | data_il | domain_il"


@pytest.mark.parametrize("make,message", [
    (lambda: Method("dino"),
     "'dino' is not one of simclr | moco | byol | vicreg | barlow"),
    (lambda: Regime("x"), "'x' is not one of ft | cassle | pnr"),
    (lambda: Scenario("x"), f"'x' is not one of {SCENARIOS}"),
    (lambda: PnrConfig(method="dino"),
     "'dino' is not one of simclr | moco | byol | vicreg | barlow"),
    (lambda: PnrConfig(regime="x"), "'x' is not one of ft | cassle | pnr"),
    (lambda: ExperimentConfig(scenario="x"), f"'x' is not one of {SCENARIOS}"),
])
def test_unknown_choice_is_a_cssl_error(make, message):
    with pytest.raises(errors.CsslError) as err:
        make()
    assert str(err.value) == message
