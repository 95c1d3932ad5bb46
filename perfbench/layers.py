"""Which program functions open which layer's span.

Layer names are the program's module paths. Each installer imports the
modules it patches first, so that every ``from ... import`` binding of a
patched function already exists when :meth:`Tracer.patch_function`
replaces it.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib

from spans import Tracer

#: ``TableAggregate`` methods that finalize Tables II-X from the fold.
AGGREGATE_FINALIZERS = (
    "forwarder_table", "correctness_table", "flag_table", "rcode_table",
    "estimates", "empty_question", "incorrect_forms", "top_destinations",
    "malicious_categories", "malicious_flags", "country_distribution",
)
#: Modules whose ``measure_*`` functions make up the batch analysis.
ANALYSIS_MODULES = (
    "repro.analysis.correctness", "repro.analysis.empty_question",
    "repro.analysis.headers", "repro.analysis.incorrect",
    "repro.analysis.malicious", "repro.analysis.forwarders",
    "repro.analysis.summary",
)


def _codec_counter(tracer: Tracer):
    """Count codec calls by the span they ran under."""

    def after(args, kwargs, result) -> None:
        if tracer.active("dnssec.validation"):
            tracer.count("dnslib.wire.census")
        elif tracer.active("prober.probe"):
            tracer.count("dnslib.wire.scan")
        else:
            tracer.count("dnslib.wire.other")

    return after


def _patch_codec(tracer: Tracer) -> None:
    wire = importlib.import_module("repro.dnslib.wire")
    after = _codec_counter(tracer)
    tracer.patch_function(wire, "encode_message", "dnslib.wire", after)
    tracer.patch_function(wire, "decode_message", "dnslib.wire", after)


def install_campaign(tracer: Tracer, worker_dir: pathlib.Path) -> None:
    """Spans for a campaign run, in this process and its forked workers.

    A multicore worker is forked with a copy of this tracer; it starts
    from an empty one and writes what it recorded to ``worker_dir`` when
    its work function returns, because forked workers send no spans back.
    """
    for name in ("repro.core.campaign", "repro.core.shard",
                 "repro.core.multicore", "repro.dnssec.validation",
                 "repro.stream.pipeline", *ANALYSIS_MODULES):
        importlib.import_module(name)
    zmap = importlib.import_module("repro.prober.zmap")
    population = importlib.import_module("repro.resolvers.population")
    probe = importlib.import_module("repro.prober.probe")
    validation = importlib.import_module("repro.dnssec.validation")
    capture = importlib.import_module("repro.prober.capture")
    pipeline = importlib.import_module("repro.stream.pipeline")
    aggregate = importlib.import_module("repro.stream.aggregate")
    multicore = importlib.import_module("repro.core.multicore")

    tracer.patch_function(zmap, "probe_list", "prober.zmap")
    # The sharded engines take the universe from this memoised wrapper
    # around ``list(zmap.probe_order(...))``; the generator itself
    # cannot be timed by wrapping.
    shard = importlib.import_module("repro.core.shard")
    tracer.patch_function(shard, "_campaign_universe", "prober.zmap")
    tracer.patch_method(population.PopulationSampler, "sample",
                        "resolvers.population")
    tracer.patch_method(
        population.SampledPopulation, "deploy", "resolvers.population",
        after=lambda args, kwargs, result: tracer.count("deploy_calls"),
    )

    prober_run = probe.Prober.run

    def run_counting_events(self, *args, **kwargs):
        scheduler = self.network.scheduler
        before = scheduler.processed
        try:
            return prober_run(self, *args, **kwargs)
        finally:
            tracer.count("scheduler_events", scheduler.processed - before)

    probe.Prober.run = tracer.wrap("prober.probe", run_counting_events)
    tracer.patch_function(validation, "run_validation_census",
                          "dnssec.validation")
    tracer.patch_function(capture, "join_flows", "prober.capture")
    for name in ANALYSIS_MODULES:
        module = importlib.import_module(name)
        for attribute in dir(module):
            if attribute.startswith("measure_") and getattr(
                module, attribute
            ).__module__ == name:
                tracer.patch_function(module, attribute, "analysis")
    tracer.patch_method(pipeline.StreamPipeline, "finish", "stream")
    for method in AGGREGATE_FINALIZERS:
        tracer.patch_method(aggregate.TableAggregate, method, "stream")
    _patch_codec(tracer)
    tracer.patch_function(multicore, "run_multicore", "core.multicore")

    worker_main = multicore._worker_main

    def traced_worker(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            target = worker_dir / f"worker-{os.getpid()}.json"
            target.write_text(json.dumps(tracer.document()))

    multicore._worker_main = traced_worker


def install_serve(tracer: Tracer) -> None:
    """Spans for the daemon's receive-to-send path.

    The handlers are bound when the serving world is built, so the
    classes are patched before the CLI builds it.
    """
    recursive = importlib.import_module("repro.dnssrv.recursive")
    delegation = importlib.import_module("repro.dnssrv.delegation")
    auth = importlib.import_module("repro.dnssrv.auth")
    cache = importlib.import_module("repro.dnssrv.cache")
    socketio = importlib.import_module("repro.transport.socketio")
    importlib.import_module("repro.transport.serve")

    for method in ("handle_client", "handle_upstream"):
        tracer.patch_method(recursive.RecursiveResolver, method,
                            "dnssrv.recursive")
    tracer.patch_method(delegation.DelegationServer, "handle",
                        "dnssrv.delegation")
    tracer.patch_method(auth.AuthoritativeServer, "handle", "dnssrv.auth")

    def cache_outcome(args, kwargs, result) -> None:
        tracer.count("cache_lookups")
        if result is not None:
            tracer.count("cache_hits")

    tracer.patch_method(cache.DnsCache, "get", "dnssrv.cache", cache_outcome)
    tracer.patch_method(socketio.AsyncUdpTransport, "send",
                        "transport.socketio.send")
    tracer.patch_method(socketio.AsyncUdpTransport, "_on_readable",
                        "transport.socketio.recv")
    _patch_codec(tracer)
