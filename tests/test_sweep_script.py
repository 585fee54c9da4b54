"""scripts/sweep.py, whose per-m table the benchmark's search-sweep golden
was recorded from."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_equal_the_benchmark_table():
    golden = json.loads((ROOT / "perfbench" / "goldens" / "search-sweep.json")
                        .read_text(encoding="utf-8"))["table"]
    rows = load_sweep().run_sweep(3, 8)
    assert [r["m"] for r in rows] == list(range(3, 9))
    assert {str(r["m"]): {k: v for k, v in r.items() if k not in ("m", "seconds")}
            for r in rows} == {str(m): golden[str(m)] for m in range(3, 9)}


def test_max_m_is_the_search_bound(monkeypatch):
    # m = 17 lies above the search's default bound of 16; one small
    # Springer set keeps the run short
    sweep = load_sweep()
    every = sweep.all_springer_sets
    monkeypatch.setattr(sweep, "all_springer_sets", lambda m: every(m)[:1])
    rows = sweep.run_sweep(17, 17)
    assert [(r["m"], r["sets"], r["accepted"]) for r in rows] == [(17, 1, 1)]
