"""Every name the benchmark wraps still resolves.

perfbench's tracer replaces each ``(owner, attribute)`` of its probe and
layer specs with a timing wrapper, reading a class attribute from the
class's ``__dict__`` and anything else with ``getattr`` (``Tracer.patch``).
Deleting such a name, for example an import kept only so that the tracer
can wrap it where its caller looks it up, breaks ``run.py --trace 1``
without failing any other test.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolves(owner, attr) -> bool:
    if isinstance(owner, type):
        return callable(owner.__dict__.get(attr))
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    from tracer import Tracer

    rec = workloads.Recorder(Tracer())
    specs = workloads.probe_specs(rec) + workloads.layer_specs(rec)
    assert specs
    missing = [f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
               for owner, attr, _, _ in specs if not _resolves(owner, attr)]
    assert missing == []
