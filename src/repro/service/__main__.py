"""CLI entry point: ``python -m repro.service --state-dir DIR ...``.

Starts the job daemon and serves until drained: SIGTERM and SIGINT
both trigger a graceful drain (stop accepting, finish the queue, exit)
— kill -9 is the crash path, which the journaled queue survives.

The bound address is printed as one JSON line on stdout (``{"family":
"tcp", "host": ..., "port": ...}``) as soon as the socket is
listening, so wrappers that asked for an ephemeral port (``--port 0``)
can read where to connect.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from .daemon import ServiceConfig, StroberService


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Strober job daemon: submit energy-simulation jobs "
                    "over a line-delimited JSON socket API.")
    parser.add_argument("--state-dir", required=True,
                        help="directory for the jobs journal and "
                             "per-job run journals (resume state)")
    transport = parser.add_mutually_exclusive_group()
    transport.add_argument("--unix-socket",
                           help="serve on this Unix socket path")
    transport.add_argument("--host", default="127.0.0.1",
                           help="TCP bind host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0 = ephemeral; the "
                             "bound address is printed on stdout)")
    parser.add_argument("--max-queue", type=int, default=16,
                        help="queued-job admission limit (default 16)")
    parser.add_argument("--max-running", type=int, default=1,
                        help="concurrently running jobs (default 1)")
    parser.add_argument("--job-retries", type=int, default=2,
                        help="retries per job on recoverable faults "
                             "(default 2)")
    parser.add_argument("--retry-backoff-s", type=float, default=0.25,
                        help="full-jitter backoff base (default 0.25)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="default per-job wall-clock deadline")
    parser.add_argument("--gl-backend", default=None,
                        help="default gate-level backend request "
                             "(interp|c|auto)")
    parser.add_argument("--breaker-threshold", type=int, default=2,
                        help="worker crashes on one backend rung "
                             "before demotion (default 2)")
    parser.add_argument("--trace-dir", default=None,
                        help="write one Chrome-trace JSON per job here")
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="also serve Prometheus text exposition "
                             "over plain HTTP (GET /metrics) on this "
                             "port (0 = ephemeral; the bound port is "
                             "printed in the stdout address line as "
                             "metrics_port)")
    return parser


async def serve(config):
    service = StroberService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, service.begin_drain, True)
    address = dict(service.address)
    if service.metrics_address is not None:
        # Extra keys are safe: ServiceClient.from_address only reads
        # family/path/host/port.
        address["metrics_host"] = service.metrics_address[0]
        address["metrics_port"] = service.metrics_address[1]
    print(json.dumps(address), flush=True)
    await service.wait_stopped()


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = ServiceConfig(
        state_dir=args.state_dir,
        unix_socket=args.unix_socket,
        host=args.host, port=args.port,
        max_queue=args.max_queue, max_running=args.max_running,
        job_retries=args.job_retries,
        retry_backoff_s=args.retry_backoff_s,
        default_deadline_s=args.deadline_s,
        default_gl_backend=args.gl_backend,
        breaker_threshold=args.breaker_threshold,
        trace_dir=args.trace_dir,
        metrics_port=args.metrics_port,
    )
    asyncio.run(serve(config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
