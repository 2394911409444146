"""Run ``repro serve`` with the layer functions wrapped in spans.

    python3 perfbench/launcher.py --spec SPEC.json --out SPANS.json

Equivalent to ``repro serve --spec SPEC.json --port 0`` except that the
engine's public layer functions (``IncrementalMatcher.ingest_batch``,
the stores' ``add``/``neighbors``/``commit``, ``EnforcementPlan.enforce``
and the rest of :data:`layers.LAYER_FUNCTIONS`) record spans.  On
SIGTERM the server shuts down gracefully, then the spans are written to
``--out`` together with the server's final request metrics and each
tenant's counters (the content of ``GET /metrics``), captured as the
tenant closes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from layers import LayerTrace
    from repro.api.spec import ResolutionSpec
    from repro.serve import ResolutionServer, serve_forever
    from repro.serve.tenants import Tenant

    trace = LayerTrace().install()
    final_tenants = {}
    close = Tenant.close

    async def close_and_record(tenant, abort=False):
        final_tenants[tenant.fingerprint] = tenant.stats()
        await close(tenant, abort=abort)

    Tenant.close = close_and_record
    server = ResolutionServer(ResolutionSpec.from_file(args.spec), port=0)
    try:
        serve_forever(server)
    finally:
        Tenant.close = close
        trace.uninstall()
        trace.write(
            Path(args.out),
            metrics={"server": server.metrics.as_dict(), "tenants": final_tenants},
            totals={
                name: {k: v for k, v in entry.items() if k != "durations"}
                for name, entry in trace.totals().items()
            },
            ingest_durations=trace.totals().get("engine.ingest", {}).get("durations", []),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
