"""The census of settable values: CLI flags plus defaulted library parameters.

Every flag and every public parameter with a default is a knob someone
can set. The count is pinned here, so a change that adds or removes one
has to change this file too, where it is seen.
"""

import argparse
import importlib
import inspect
import pkgutil

import whitevec
from whitevec import cli

FLAGS = {"fit": 4, "transform": 4, "eval": 8, "sweep": 6, "stats": 2, "search": 5, "bench": 6}
DEFAULTED = [
    "evaluation.evaluate.transform",
    "evaluation.sweep_k.fit_data",
    "fileio.write_emb1.dtype",
    "fileio.write_emb1_blocks.dtype",
    "whitening.fit.eps",
    "whitening.fit.k",
    "whitening.fit_from_moments.eps",
    "whitening.fit_from_moments.k",
]
CENSUS = 43


def cli_flags() -> dict[str, int]:
    """Option flags per subcommand, ``--help`` left out."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                  for a in parser._actions)
        for name, parser in sub.choices.items()
    }


def public_callables(module):
    """(dotted name, function) for the public functions and methods defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def defaulted_parameters() -> list[str]:
    """module.function.parameter for each public parameter with a default.

    ``cli.run(argv)`` is left out: its argv is the flags counted above.
    """
    found = []
    for info in pkgutil.iter_modules(whitevec.__path__):
        module = importlib.import_module(f"whitevec.{info.name}")
        for name, func in public_callables(module):
            for p in inspect.signature(func).parameters.values():
                if p.default is not inspect.Parameter.empty:
                    found.append(f"{info.name}.{name}.{p.name}")
    found.remove("cli.run.argv")
    return sorted(found)


def test_census_of_settable_values():
    flags, defaulted = cli_flags(), defaulted_parameters()
    assert flags == FLAGS
    assert defaulted == DEFAULTED
    assert sum(flags.values()) + len(defaulted) == CENSUS
