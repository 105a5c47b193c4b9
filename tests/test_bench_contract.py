"""The benchmark's tracing contract with the program.

``perfbench/tracing.py`` wraps engine entry points by module, class and
attribute name.  A refactor that renames or moves one of them must fail
here, not only when the benchmark runs.
"""
import sys
from pathlib import Path

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(_PERFBENCH)


def test_every_target_resolves():
    for module, cls, attr, _ in tracing.TARGETS:
        owner = tracing._owner(module, cls)
        # methods are patched on the class that defines them
        fn = owner.__dict__.get(attr) if cls else getattr(owner, attr, None)
        assert callable(fn), f"{module}.{cls or ''}.{attr} not found"


def test_install_then_uninstall_leaves_no_wrapper():
    rec = tracing.Recorder()
    try:
        rec.install()
        assert len(tracing.active_wrappers()) == len(tracing.TARGETS)
    finally:
        rec.uninstall()
    assert tracing.active_wrappers() == []
