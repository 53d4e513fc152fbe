"""Run one scenario through every execution path and cross-check the results.

The differential contract, per scenario:

- ``SingleDeviceSystem.run`` must reproduce ``model.forward`` bit-for-bit
  (same ops, same order — any difference is a harness bug);
- every distributed ``run()`` output must match the single-device reference
  within the dtype-aware bound of :mod:`repro.verify.tolerances`;
- threaded ``execute_distributed()`` must match the corresponding ``run()`` output
  bit-for-bit (both sides exchange identically-encoded activations);
- the protocol's timeline, called directly on the system's own settings,
  must reproduce the system's simulated :class:`LatencyBreakdown`
  phase-by-phase within ``ANALYTIC_REL_TOL`` (``run()`` returns that one
  function's breakdown, so this guards that it plumbs its
  scheme/policy/wire/overlap into it);
- the All-Gather byte meta must equal the volume implied by the partition
  scheme and wire itemsize exactly;
- with failure injection, the fault-tolerant system must still match the
  reference, report the expected survivors, and run bit-identically on
  the scenario's runtime.

``run_scenario`` never raises on a conformance violation — each violation
becomes a failed :class:`Check` so the fuzzing loop can keep sampling and
the shrinker can re-evaluate candidate configs cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import OrderPolicy
from repro.systems import (
    FailureSchedule,
    FaultTolerantVoltageSystem,
    SingleDeviceSystem,
    TensorParallelSystem,
    VoltageSystem,
)
from repro.systems.base import activation_bytes
from repro.systems.decode import decode_timeline
from repro.systems.voltage import voltage_timeline
from repro.tensor.blas import rows_matmul, rows_matmul_probe
from repro.verify.scenario import ScenarioConfig, build_cluster, build_input, build_model, build_scheme
from repro.verify.tolerances import (
    ANALYTIC_REL_TOL,
    benign_argmax_tie,
    decode_logits_close,
    max_abs_diff,
    output_tolerance,
    outputs_close,
)

__all__ = ["Check", "ScenarioResult", "run_scenario", "default_voltage_factory"]


@dataclass(frozen=True)
class Check:
    """One named conformance assertion with a machine-readable outcome."""

    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "detail": self.detail,
        }


@dataclass
class ScenarioResult:
    """All checks of one scenario, plus the config that produced them."""

    config: ScenarioConfig
    checks: list[Check] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(c.passed or c.skipped for c in self.checks)

    @property
    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.passed and not c.skipped]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "label": self.config.label,
            "ok": self.ok,
            "error": self.error,
            "checks": [c.to_dict() for c in self.checks],
        }


def default_voltage_factory(model, cluster, config: ScenarioConfig) -> VoltageSystem:
    """Build the Voltage system exactly as the scenario specifies."""
    return VoltageSystem(
        model,
        cluster,
        scheme=build_scheme(config),
        policy=OrderPolicy(config.order_mode),
        wire_dtype=config.wire_dtype,
        overlap=config.overlap,
    )


def _phase_rows(latency: LatencyBreakdown) -> list[tuple[str, str, float, float]]:
    return [(p.name, p.kind, p.seconds, p.hidden_s) for p in latency.phases]


def _timelines_agree(
    analytic_latency: LatencyBreakdown, simulated: LatencyBreakdown
) -> tuple[bool, str]:
    ours, theirs = _phase_rows(analytic_latency), _phase_rows(simulated)
    if len(ours) != len(theirs):
        return False, f"phase count {len(ours)} != {len(theirs)}"
    for (a_name, a_kind, a_s, a_h), (s_name, s_kind, s_s, s_h) in zip(ours, theirs):
        if (a_name, a_kind) != (s_name, s_kind):
            return False, f"phase mismatch: analytic {a_name}/{a_kind} vs system {s_name}/{s_kind}"
        if not math.isclose(a_s, s_s, rel_tol=ANALYTIC_REL_TOL, abs_tol=1e-15):
            return False, f"phase {s_name!r}: analytic {a_s!r} vs simulated {s_s!r}"
        if not math.isclose(a_h, s_h, rel_tol=ANALYTIC_REL_TOL, abs_tol=1e-15):
            return False, f"phase {s_name!r}: analytic hidden {a_h!r} vs simulated {s_h!r}"
    return True, ""


def _expected_allgather_bytes(system: VoltageSystem, n: int) -> float:
    """Per-device All-Gather traffic the scheme + wire encoding imply."""
    f = system.model.config.hidden_size
    total = 0.0
    for parts in system.layer_parts(n)[:-1]:
        chunk_bytes = [
            activation_bytes(part.length, f, itemsize=system.wire_itemsize)
            for part in parts
        ]
        total += sum(chunk_bytes) - max(chunk_bytes)
    return total


def _closeness_detail(output, reference, wire_dtype) -> str:
    tol = output_tolerance(wire_dtype, reference)
    return (
        f"max|diff|={max_abs_diff(output, reference):.3e} "
        f"(rtol={tol.rtol:g}, atol={tol.atol:.3e}, dtype={wire_dtype})"
    )


def run_scenario(
    config: ScenarioConfig,
    voltage_factory=default_voltage_factory,
) -> ScenarioResult:
    """Execute every path for ``config`` and return the check list.

    ``voltage_factory(model, cluster, config)`` builds the Voltage system
    under test — tests substitute deliberately-broken subclasses here to
    prove the harness catches (and the shrinker minimises) real bug classes.
    """
    result = ScenarioResult(config=config)
    checks = result.checks

    def identical(name: str, got, want, detail: str) -> None:
        checks.append(Check(name, passed=bool(np.array_equal(got, want)), detail=detail))

    def close(name: str, output, reference, wire_dtype: str) -> None:
        passed = outputs_close(output, reference, wire_dtype)
        checks.append(Check(name, passed, detail=_closeness_detail(output, reference, wire_dtype)))

    try:
        model = build_model(config)
        cluster = build_cluster(config)
        raw = build_input(config, model)
        reference = model.forward(raw)
        n = model.sequence_length(raw)

        # 1. single-device path is the bit-exact reference implementation
        single = SingleDeviceSystem(model, cluster).run(raw)
        identical(
            "single_device_exact", single.output, reference,
            "SingleDeviceSystem.run vs model.forward",
        )

        # 2. Voltage: simulated run vs reference, threaded vs simulated
        voltage = voltage_factory(model, cluster, config)
        vrun = voltage.run(raw)
        close("voltage_run_vs_single", vrun.output, reference, config.wire_dtype)
        threaded, _stats = voltage.execute_distributed(raw, runtime="threaded")
        identical(
            "voltage_threaded_vs_run", threaded, vrun.output,
            f"max|diff|={max_abs_diff(threaded, vrun.output):.3e} (must be bit-identical)",
        )
        if config.runtime == "process":
            # the socket-backed process runtime must not perturb a single bit
            # relative to the thread backend (same worker body, same order)
            process_out, _ = voltage.execute_distributed(raw, runtime="process")
            identical(
                "voltage_process_vs_threaded", process_out, threaded,
                f"max|diff|={max_abs_diff(process_out, threaded):.3e} "
                "(ProcessRuntime vs ThreadedRuntime, must be bit-identical)",
            )
        # keyed on the *system's* overlap setting (not the config's) so
        # factory-substituted subclasses without the overlap machinery are
        # exercised through the checks they actually implement
        voltage_overlap = bool(getattr(voltage, "overlap", False))
        if voltage_overlap:
            # the overlapped ring-streamed execution must not perturb a single
            # bit relative to the blocking collectives
            blocking, _ = voltage.execute_distributed(raw, runtime="threaded", overlap=False)
            identical(
                "voltage_overlap_vs_blocking_threaded", threaded, blocking,
                f"max|diff|={max_abs_diff(threaded, blocking):.3e} "
                "(overlap=True vs overlap=False, must be bit-identical)",
            )

        # 3. the timeline called directly on the system's settings vs run()'s
        voltage_settings = dict(
            scheme=voltage.schedule(n),
            policy=voltage.policy,
            pre_flops=model.preprocess_flops(n),
            post_flops=model.postprocess_flops(n),
            wire_itemsize=voltage.wire_itemsize,
        )
        modelled, _ = voltage_timeline(
            model.config, n, cluster, overlap=voltage_overlap, **voltage_settings
        )
        agree, detail = _timelines_agree(modelled, vrun.latency)
        checks.append(Check("voltage_analytic_vs_sim", passed=agree, detail=detail))
        if voltage_overlap:
            # overlapping may only remove gather time from the critical
            # path: exposed <= blocking comm per layer, and the hidden
            # remainder must reconstruct the blocking figure exactly
            unoverlapped, _ = voltage_timeline(
                model.config, n, cluster, overlap=False, **voltage_settings
            )
            blocking_comm = [
                p.seconds for p in unoverlapped.phases if p.name == "all-gather"
            ]
            overlapped_comm = [
                (p.seconds, p.hidden_s)
                for p in modelled.phases if p.name == "all-gather (overlapped)"
            ]
            ok = len(blocking_comm) == len(overlapped_comm) and all(
                exposed <= full + 1e-15
                and math.isclose(exposed + hidden, full, rel_tol=1e-12, abs_tol=1e-15)
                for (exposed, hidden), full in zip(overlapped_comm, blocking_comm)
            )
            checks.append(
                Check(
                    "voltage_overlap_modeled_not_worse",
                    passed=ok,
                    detail=(
                        f"exposed+hidden per layer {overlapped_comm} vs "
                        f"blocking {blocking_comm}"
                    ),
                )
            )

        # 4. communication-volume meta vs the scheme-implied bytes
        expected_bytes = _expected_allgather_bytes(voltage, n)
        reported = vrun.meta.get("allgather_bytes_per_device", float("nan"))
        checks.append(
            Check(
                "voltage_comm_volume",
                passed=math.isclose(reported, expected_bytes, rel_tol=1e-12, abs_tol=1e-9),
                detail=f"meta {reported!r} vs scheme-implied {expected_bytes!r}",
            )
        )

        # 5. distributed decode (gpt2 scenarios): the token loop with a
        # position-sharded KV cache must emit bit-identical sequences to
        # single-device generate_cached, on every backend
        if config.decode_steps:
            decode_ref = model.generate_cached(raw, max_new_tokens=config.decode_steps)
            drun = voltage.run_decode(raw, max_new_tokens=config.decode_steps)
            identical(
                "decode_run_vs_generate_cached", drun.output, decode_ref,
                "run_decode's sharded decode vs generate_cached (must be bit-identical)",
            )
            dist_ids, dist_stats = voltage.generate_distributed(
                raw, max_new_tokens=config.decode_steps
            )
            identical(
                "decode_distributed_vs_generate_cached", dist_ids, decode_ref,
                "threaded sharded decode vs generate_cached (must be bit-identical)",
            )
            if config.runtime == "process":
                proc_ids, _ = voltage.generate_distributed(
                    raw, max_new_tokens=config.decode_steps, runtime="process"
                )
                identical(
                    "decode_process_vs_threaded", proc_ids, dist_ids,
                    "ProcessRuntime vs ThreadedRuntime decode (must be bit-identical)",
                )
            capacity = min(
                n + config.decode_steps, model.config.max_positions
            )
            decode_scheme = voltage.schedule(capacity)
            decode_modelled, _ = decode_timeline(
                model.config, n, config.decode_steps, cluster, scheme=decode_scheme
            )
            agree, detail = _timelines_agree(decode_modelled, drun.latency)
            checks.append(Check("decode_analytic_vs_sim", passed=agree, detail=detail))
            expected_kv_bytes = _expected_decode_gather_bytes(
                voltage, n, config.decode_steps
            )
            reported_kv = drun.meta.get("kv_gather_bytes_per_device", float("nan"))
            checks.append(
                Check(
                    "decode_comm_volume",
                    passed=math.isclose(
                        reported_kv, expected_kv_bytes, rel_tol=1e-12, abs_tol=1e-9
                    ),
                    detail=f"meta {reported_kv!r} vs span-implied {expected_kv_bytes!r}",
                )
            )
            checks.extend(
                _decode_head_checks(
                    "decode", voltage, n, config.decode_steps, "gathered", drun, dist_stats
                )
            )
            checks.append(_head_argmax_check(model, raw, config.seed))
            checks.append(_rows_matmul_check(model, raw, config.seed))

            # 5b. distributed attention (regime 2): local-shard attention
            # with the log-sum-exp combine gives up bit-identity against the
            # single device — tokens are checked under the benign-tie
            # policy, final-step logits under the dtype-aware closeness
            # bound, while every *protocol* comparison (process vs threaded
            # ranks) stays regime-1 bit-exact.
            if config.decode_attention == "distributed":
                from repro.systems.decode import decode_stats_wire

                drun_dist = voltage.run_decode(
                    raw, max_new_tokens=config.decode_steps, attention="distributed"
                )
                tokens_ok, token_detail = _decode_tokens_match(
                    model, drun_dist.output, decode_ref, voltage.wire_dtype
                )
                checks.append(
                    Check(
                        "decode_distributed_attn_vs_generate_cached",
                        passed=tokens_ok,
                        detail=token_detail,
                    )
                )
                final_logits = np.asarray(drun_dist.meta["final_logits"])
                prefix = int(drun_dist.meta["final_logits_prefix"])
                ref_logits = model.forward(np.asarray(drun_dist.output[:prefix]))
                checks.append(
                    Check(
                        "decode_distributed_attn_logits_close",
                        passed=decode_logits_close(
                            final_logits, ref_logits, voltage.wire_dtype
                        ),
                        detail=(
                            f"final-step logits max|diff|="
                            f"{max_abs_diff(final_logits, ref_logits):.3e} "
                            f"({voltage.wire_dtype} decode closeness regime)"
                        ),
                    )
                )
                dist_attn_ids, dist_attn_stats = voltage.generate_distributed(
                    raw, max_new_tokens=config.decode_steps, attention="distributed"
                )
                if config.runtime == "process":
                    proc_attn_ids, _ = voltage.generate_distributed(
                        raw, max_new_tokens=config.decode_steps,
                        runtime="process", attention="distributed",
                    )
                    identical(
                        "decode_distributed_attn_process_vs_threaded", proc_attn_ids, dist_attn_ids,
                        "ProcessRuntime vs ThreadedRuntime distributed-"
                        "attention decode (must be bit-identical)",
                    )
                dist_modelled, _ = decode_timeline(
                    model.config, n, config.decode_steps, cluster,
                    scheme=decode_scheme, attention="distributed",
                    stats_itemsize=decode_stats_wire(voltage.wire_dtype)[1],
                )
                agree, detail = _timelines_agree(dist_modelled, drun_dist.latency)
                checks.append(
                    Check(
                        "decode_distributed_attn_analytic_vs_sim",
                        passed=agree, detail=detail,
                    )
                )
                expected_combine = _expected_decode_combine_bytes(
                    voltage, n, config.decode_steps
                )
                reported_combine = drun_dist.meta.get(
                    "combine_bytes_per_device", float("nan")
                )
                checks.append(
                    Check(
                        "decode_combine_volume",
                        passed=reported_combine == expected_combine,
                        detail=(
                            f"meta {reported_combine!r} vs span-implied "
                            f"{expected_combine!r} (deterministic framing: exact)"
                        ),
                    )
                )
                checks.extend(
                    _decode_head_checks(
                        "decode_distributed_attn", voltage, n, config.decode_steps,
                        "distributed", drun_dist, dist_attn_stats,
                    )
                )

        # 6. tensor parallelism: run + threaded (always float32 wire)
        tp = TensorParallelSystem(model, cluster)
        tp_run = tp.run(raw)
        close("tensor_parallel_run_vs_single", tp_run.output, reference, "float32")
        tp_threaded, _ = tp.execute_distributed(raw, runtime="threaded")
        identical(
            "tensor_parallel_threaded_vs_run", tp_threaded, tp_run.output,
            f"max|diff|={max_abs_diff(tp_threaded, tp_run.output):.3e}",
        )
        if config.runtime == "process":
            tp_process, _ = tp.execute_distributed(raw, runtime="process")
            identical(
                "tensor_parallel_process_vs_threaded", tp_process, tp_threaded,
                f"max|diff|={max_abs_diff(tp_process, tp_threaded):.3e} "
                "(ProcessRuntime vs ThreadedRuntime, must be bit-identical)",
            )

        # 7. failure injection: survivors must still produce the answer
        if config.failures:
            schedule = FailureSchedule(dict(config.failures))
            ft = FaultTolerantVoltageSystem(model, cluster, failures=schedule)
            ft_run = ft.run(raw)
            close("fault_tolerant_run_vs_single", ft_run.output, reference, "float32")
            expected_survivors = [
                d for d in range(config.devices)
                if all(d != dev for dev, _ in config.failures)
            ]
            checks.append(
                Check(
                    "fault_tolerant_survivors",
                    passed=ft_run.meta.get("survivors") == expected_survivors,
                    detail=f"meta {ft_run.meta.get('survivors')} vs expected {expected_survivors}",
                )
            )
            # survivors re-shard on real ranks: a dead rank holds an empty partition
            ft_out, _ = ft.execute_distributed(raw, runtime=config.runtime)
            identical(
                "fault_tolerant_distributed_vs_run", ft_out, ft_run.output,
                f"max|diff|={max_abs_diff(ft_out, ft_run.output):.3e} "
                f"({config.runtime} ranks vs run(), must be bit-identical)",
            )
    except Exception as exc:  # noqa: BLE001 - a crash is itself a finding
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _decode_steps(
    voltage: VoltageSystem, prompt_len: int, max_new_tokens: int
) -> list[tuple[int, int, bool]]:
    """Per step of the greedy loop, ``(filled, added, partitioned)``: the
    sequence length after the step, its new rows, and whether
    ``decode_step_slices`` span-partitions it — which decides, in either
    attention mode, that its layers gather K/V rows, not combine stats."""
    from repro.systems.decode import decode_layer_spans, decode_step_slices, decode_step_totals

    config = voltage.model.config
    spans = decode_layer_spans(voltage, min(prompt_len + max_new_tokens, config.max_positions))
    totals = decode_step_totals(prompt_len, max_new_tokens, config.max_positions)
    steps = []
    for step, filled in enumerate(totals):
        added = prompt_len if step == 0 else 1
        partitioned = decode_step_slices(config, spans, filled - added, added) is not None
        steps.append((filled, added, partitioned))
    return steps


def _expected_decode_gather_bytes(
    voltage: VoltageSystem, prompt_len: int, max_new_tokens: int
) -> int:
    """Per-device KV-gather traffic the decode spans imply (lossless float32).

    Mirrors ``run_decode``'s accounting from the span geometry alone: for
    every step, every layer contributes two shard all-gathers whose chunks
    are the spans clipped to the filled prefix.
    """
    from repro.systems.decode import decode_layer_spans, decode_step_totals

    config = voltage.model.config
    capacity = min(prompt_len + max_new_tokens, config.max_positions)
    spans = decode_layer_spans(voltage, capacity)
    row_bytes = config.num_heads * config.head_dim * 4
    total = 0
    for filled in decode_step_totals(prompt_len, max_new_tokens, config.max_positions):
        for parts in spans:
            chunks = [
                max(0, min(part.stop, filled) - max(part.start, 0)) * row_bytes
                for part in parts
            ]
            total += 2 * (sum(chunks) - max(chunks))
    return total


def _expected_decode_combine_bytes(
    voltage: VoltageSystem, prompt_len: int, max_new_tokens: int
) -> int:
    """Per-device combine-stats traffic distributed attention implies.

    Every layer of every all-rows step pays one all-gather of packed
    ``(o, m, l)`` tuples — one ``head_dim + 2`` row per head per *new*
    query position, independent of how much context each rank holds.
    The framing is deterministic, so the check against the meta is exact.
    """
    from repro.systems.decode import decode_stats_wire

    config = voltage.model.config
    k = voltage.cluster.num_devices
    itemsize = decode_stats_wire(voltage.wire_dtype)[1]
    total = 0
    for _, added, partitioned in _decode_steps(voltage, prompt_len, max_new_tokens):
        if not partitioned:
            chunk = config.num_heads * added * (config.head_dim + 2) * itemsize
            total += config.num_layers * (k - 1) * chunk
    return total


def _expected_decode_head_bytes(
    voltage: VoltageSystem, prompt_len: int, max_new_tokens: int
) -> tuple[int, int]:
    """Head-exchange traffic the decode shapes imply, as its own term beside
    the layers' K/V or stats gathers: ``(per device, sent by all ranks)``.

    Every step each rank hands every peer one packed ``(max logit, index)``
    pair (16 bytes); a span-partitioned step first hands the last new row's
    hidden state (``F`` float32) from its owner to the ``K - 1`` ranks that
    did not compute it.  Per device is what such a rank receives.
    """
    config = voltage.model.config
    k = voltage.cluster.num_devices
    steps = _decode_steps(voltage, prompt_len, max_new_tokens)
    partitioned = sum(k > 1 and step_partitioned for *_, step_partitioned in steps)
    pair, row = (k - 1) * 16, config.hidden_size * 4
    return (
        len(steps) * pair + partitioned * row,
        len(steps) * k * pair + partitioned * (k - 1) * row,
    )


def _decode_head_checks(
    prefix: str, voltage: VoltageSystem, prompt_len: int, max_new_tokens: int,
    attention: str, drun, stats,
) -> list[Check]:
    """The head exchange against its oracle, twice: ``run_decode``'s
    ``head_bytes_per_device`` meta, and the threaded runtime's ``CommStats``
    — every byte the ranks sent must be a layer gather's or the head's
    (ring accounting: a rank sends the gathered whole minus its own chunk,
    so ``K`` ranks send ``K - 1`` times the whole)."""
    config = voltage.model.config
    k = voltage.cluster.num_devices
    per_device, head_sent = _expected_decode_head_bytes(voltage, prompt_len, max_new_tokens)
    # K and V: every filled row of every layer, on each step that gathers K/V
    filled = sum(
        filled for filled, _, partitioned in _decode_steps(voltage, prompt_len, max_new_tokens)
        if attention == "gathered" or partitioned
    )
    row_bytes = config.num_heads * config.head_dim * 4
    layer_sent = (k - 1) * 2 * config.num_layers * filled * row_bytes
    if attention != "gathered":  # K equal stats chunks; the oracle counts the K - 1 one receives
        layer_sent += k * _expected_decode_combine_bytes(voltage, prompt_len, max_new_tokens)
    reported = drun.meta.get("head_bytes_per_device", float("nan"))
    sent = sum(s.bytes_sent for s in stats)
    return [
        Check(
            f"{prefix}_head_volume",
            passed=reported == per_device,
            detail=f"meta {reported!r} vs shape-implied {per_device!r} (exact)",
        ),
        Check(
            f"{prefix}_bytes_sent",
            passed=sent == layer_sent + head_sent,
            detail=(
                f"CommStats {sent!r} vs layer gathers {layer_sent!r} + head exchange "
                f"{head_sent!r} (exact)"
            ),
        ),
    ]


def _head_argmax_check(model, raw, seed: int) -> Check:
    """The engine's argmax-only head against the logits it stands in for, on
    a seed-sampled ``B`` (2–17) of the scenario's own final hidden rows at
    the scenario's width: screened-and-certified tokens must be
    ``np.argmax`` of ``lm_head``'s rows (INTERNALS §9)."""
    rng = np.random.default_rng(seed + 3)
    hidden = model.encode(model.preprocess(raw))
    rows = [hidden[i] for i in rng.integers(0, len(hidden), size=int(rng.integers(2, 18)))]
    tokens, fallbacks = model.head_argmax(rows)
    want = np.argmax(model.lm_head(rows), axis=-1)
    return Check(
        "head_argmax_matches_logits",
        passed=bool(np.array_equal(tokens, want)),
        detail=(
            f"B={len(rows)} rows at F={model.config.hidden_size}: "
            f"{int(np.sum(tokens != want))} differ, {fallbacks} took the exact path"
        ),
    )


def _rows_matmul_check(model, raw, seed: int) -> Check:
    """The decode round's shared-matrix kernel against the calls it stands
    in for, on a seed-sampled ``B`` (2–9) of the scenario's own hidden rows
    and the first layer's weight matrices — the fused QKV and its query
    column view (``lda ≠ N``), W_O, FC1 and FC2: every product of
    ``rows_matmul`` must be ``np.array_equal`` to that row's own
    ``np.matmul``, and the detail names the probe's verdict per matrix
    (INTERNALS §10)."""
    rng = np.random.default_rng(seed + 4)
    hidden = model.encode(model.preprocess(raw))
    rows = [hidden[i : i + 1] for i in rng.integers(0, len(hidden), size=int(rng.integers(2, 10)))]
    attention, ffn = model.layers[0].attention, model.layers[0].ffn
    fc1 = ffn.fc1.weight.data
    products = {
        "QKV": (attention.fused_qkv()[0], rows),
        "Q view": (attention.query.weight.data, rows),
        "W_O": (attention.output.weight.data, rows),
        "FC1": (fc1, rows),
        "FC2": (ffn.fc2.weight.data, [ffn.activate(row @ fc1) for row in rows]),
    }
    differ = sum(
        not np.array_equal(got, np.matmul(x, weight))
        for weight, xs in products.values()
        for x, got in zip(xs, rows_matmul(xs, weight))
    )
    verdicts = {name: rows_matmul_probe(weight) for name, (weight, _) in products.items()}
    return Check(
        "rows_matmul_matches_matmul",
        passed=differ == 0,
        detail=(
            f"B={len(rows)} rows x {len(products)} matrices at F={model.config.hidden_size}: "
            f"{differ} products differ; "
            + ", ".join(
                f"{name} {'kernel' if verdict.startswith('accumulate') else verdict}"
                for name, verdict in verdicts.items()
            )
        ),
    )


def _decode_tokens_match(
    model, output: np.ndarray, reference: np.ndarray, wire_dtype: str
) -> tuple[bool, str]:
    """Token agreement for regime-2 decode, with the benign-tie escape.

    Distributed-attention logits match the reference only to tolerance, so
    greedy argmax may flip when the reference's top two logits sit within
    the closeness band.  Exact equality passes outright; otherwise the
    *first* diverging step is re-derived from the shared prefix and the
    divergence is accepted iff the reference logits show a benign tie there
    (everything after a legitimate flip is a different — equally valid —
    trajectory, so later tokens are not compared).
    """
    output = np.asarray(output)
    reference = np.asarray(reference)
    if output.shape == reference.shape and bool(np.array_equal(output, reference)):
        return True, "token-for-token identical to generate_cached"
    common = min(output.shape[0], reference.shape[0])
    diverged = np.nonzero(output[:common] != reference[:common])[0]
    if diverged.size == 0:
        return False, f"length mismatch: {output.shape[0]} vs {reference.shape[0]}"
    d = int(diverged[0])
    ref_logits = model.forward(reference[:d])
    if benign_argmax_tie(ref_logits, wire_dtype):
        return True, (
            f"diverged at position {d} on a benign argmax tie "
            f"(reference top-2 gap within the {wire_dtype} closeness band)"
        )
    return False, (
        f"diverged at position {d}: output {output[d]!r} vs reference "
        f"{reference[d]!r}, and the reference top-2 gap exceeds the tie band"
    )
