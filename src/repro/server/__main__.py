"""``python -m repro.server <store_dir>`` — serve a warm store over HTTP.

The store directory is self-describing: when it holds a sweep manifest
(written by :meth:`MeasurementStore.publish_manifest` /
``SweepManifest.save``), the population is rebuilt from the manifest's
embedded architectures and network configuration — the same standalone
rebuild a distributed :class:`SweepWorker` performs — so the server needs
nothing but the directory.  Without a manifest, ``--models``/``--seed``
regenerate the population the store was swept with (the generator is
deterministic per seed).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
from pathlib import Path
from typing import Sequence

from ..errors import ServiceError
from ..nasbench.dataset import NASBenchDataset
from ..service.query import SweepService
from ..service.queue import SweepManifest
from ..service.store import MeasurementStore
from .app import ServerConfig, SweepServer


def build_service(
    store_dir: str | Path,
    *,
    configs: Sequence[str] | None = None,
    manifest_digest: str | None = None,
    models: int | None = None,
    seed: int = 7,
) -> SweepService:
    """A warm :class:`SweepService` over *store_dir*, dataset rebuilt locally.

    Manifest-described stores need no further arguments; manifest-less
    stores fall back to regenerating ``--models`` cells with ``--seed``.
    """
    store_dir = Path(store_dir)
    manifest = None
    try:
        manifest = SweepManifest.find(store_dir, digest=manifest_digest)
    except ServiceError:
        if models is None:
            raise ServiceError(
                f"{store_dir} has no sweep manifest; pass --models/--seed to "
                "regenerate the population the store was swept with"
            ) from None
    if manifest is not None:
        archs = [
            arch
            for shard in range(manifest.num_shards)
            for arch in manifest.shard_archs(shard)
        ]
        dataset = NASBenchDataset.from_cells(archs, manifest.network_config())
        store = MeasurementStore(
            store_dir,
            shard_size=manifest.shard_size,
            enable_parameter_caching=manifest.enable_parameter_caching,
            prefix=manifest.prefix,
        )
        if configs is None:
            configs = [manifest.config(name) for name in manifest.config_names()]
    else:
        dataset = NASBenchDataset.generate(num_models=models, seed=seed)
        store = MeasurementStore(store_dir)
    return SweepService(store, dataset, configs=configs)


async def _serve(service: SweepService, config: ServerConfig) -> None:
    server = SweepServer(service, config)
    await server.start()
    print(
        f"repro.server: {len(service.dataset)} models x "
        f"{service.config_names} on http://{config.host}:{server.port} "
        f"(store {service.store_digest}); Ctrl-C to drain and stop"
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        print("repro.server: draining ...")
        await server.stop()
        print("repro.server: stopped")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description=(
            "Serve top-k/pareto/metric lookups and micro-batched predictions "
            "over a warm measurement store."
        ),
    )
    parser.add_argument("store_dir", help="measurement store directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787, help="0 = ephemeral")
    parser.add_argument(
        "--configs", nargs="*", default=None, help="configurations to serve"
    )
    parser.add_argument(
        "--manifest", default=None, help="manifest digest (if several)"
    )
    parser.add_argument(
        "--models",
        type=int,
        default=None,
        help="regenerate an N-model population (manifest-less stores)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--window-ms",
        type=float,
        default=5.0,
        help="predict micro-batch window (0 disables coalescing)",
    )
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--cache-size", type=int, default=256, help="0 disables")
    parser.add_argument("--max-inflight", type=int, default=128)
    args = parser.parse_args(argv)

    service = build_service(
        args.store_dir,
        configs=args.configs,
        manifest_digest=args.manifest,
        models=args.models,
        seed=args.seed,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
    )
    try:
        asyncio.run(_serve(service, config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
