(** End-to-end detector runs: {!Input.t} + mode + context → merged report.

    Every entry point is one pipeline with three stages:

    - {e prepare} (once per program): pick the program form — lowered for
      [Nolib_spin], as written otherwise — and run the instrumentation
      phase when the mode has a spin window.  Both go through
      {!Analysis_cache}, so repeated runs of the same program (suite
      sweeps, chaos storms, benchmarks) skip the static analysis.
    - {e per-seed} (pure, parallel): one sandboxed runner per seed, fanned
      out over a domain pool [Options.jobs] wide.  The runner's event
      stream comes either from executing the machine or from a recorded
      section; its observers attach in a fixed order — the chaos
      injector (live runs only), then the recording sink (when
      recording), then the engine and the CV checker (when detecting).
    - {e merge} (deterministic): fold the per-seed reports in seed order
      (a dynamic detector's findings accumulate over runs) and average
      the per-run racy-context counts (the paper's PARSEC metric).  The
      fold order is fixed, so results are byte-identical whatever the
      pool width.

    Record/replay only changes where the stream comes from: {!record}
    runs the machine with a {!Trace_codec} sink attached and seals the
    event stream into a compact binary trace; {!replay} streams a
    recording's sections through fresh engines without re-executing the
    program; {!compare_on_trace} records once and replays the same
    sections through one engine per mode.  Replaying a recording
    produces results byte-identical to the live run that made it — that
    identity is the subsystem's correctness oracle. *)

open Arde_tir.Types

type options = Options.t
(** Build with {!Options.make} and the [Options.with_*] combinators. *)

(** {1 Engine selection}

    The per-seed detector behind a closure record.  {!run} defaults to
    the optimized {!Engine}; the differential suite passes
    {!ref_engine} to drive the identical pipeline (chaos injection and
    all) through the frozen {!Engine_ref} oracle and compare results
    byte for byte. *)

type engine = {
  e_observer : Arde_runtime.Observer.t;
  e_report : unit -> Report.t;
  e_spin_edges : unit -> int;
  e_memory_words : unit -> int;
}

type engine_factory =
  Config.t ->
  cv_mutexes:string list ->
  inferred_locks:string list ->
  instrument:Arde_cfg.Instrument.t option ->
  engine

val opt_engine : engine_factory
(** {!Engine}, the epoch-based optimized detector (the default). *)

val ref_engine : engine_factory
(** {!Engine_ref}, the frozen reference detector. *)

(** {1 Run context}

    Everything about {e how} a run executes, as opposed to {e what} it
    analyzes (the input and mode): knob surface, engine choice, domain
    pool, cancellation, cache key.  One value replaces the optional
    argument sprawl the entry points used to share. *)

type ctx = {
  c_options : Options.t;
  c_engine : engine_factory;
  c_pool : Arde_util.Domain_pool.pool option;
      (** run the per-seed stage on a caller-owned resident pool (the
          serve daemon's long-lived one) instead of spawning domains per
          call; [Options.jobs] is ignored when set *)
  c_should_stop : unit -> bool;
      (** cooperative cancellation, consulted once per seed before that
          seed starts.  Once it returns [true], remaining seeds become
          [Cancelled] (health [Degraded]) while completed seeds keep
          their reports — the primitive behind the server's deadlines
          and graceful drain. *)
  c_program_digest : string option;
      (** caller-supplied key uniquely identifying the input program,
          forwarded to {!Analysis_cache.prepare} so the warm path skips
          the canonical-digest pretty-print *)
}

val ctx :
  ?options:options ->
  ?engine:engine_factory ->
  ?pool:Arde_util.Domain_pool.pool ->
  ?should_stop:(unit -> bool) ->
  ?program_digest:string ->
  unit ->
  ctx
(** Smart constructor; every field defaulted ([Options.default],
    {!opt_engine}, no pool, never stop, no digest). *)

val default_ctx : ctx
(** [ctx ()]. *)

val default_mode : Config.mode
(** [Helgrind_spin 7] — what {!run} and the CLI use when no mode is
    given. *)

(** {1 Results} *)

type seed_outcome =
  | Completed of Arde_runtime.Machine.outcome
      (** The machine ran to a verdict (which may itself be a deadlock,
          livelock, fuel exhaustion or program fault). *)
  | Crashed of loc option * string
      (** The detector itself failed on this seed — a broken machine
          invariant, an observer exception, injected chaos.  The location
          is the machine's fault site when one is known. *)
  | Cancelled
      (** The run's [c_should_stop] hook fired before this seed started
          (a server deadline, a drain).  Nothing ran for it; completed
          seeds' findings are unaffected. *)

type seed_run = {
  sr_seed : int;
  sr_outcome : seed_outcome;
  sr_steps : int;
  sr_contexts : int;
  sr_capped : bool;
  sr_spin_edges : int;
  sr_memory_words : int;
  sr_check_failures : (loc * string) list;
  sr_cv_diagnostics : Cv_checker.diagnostic list;
      (* lost signals observed in this run *)
}

type health_verdict =
  | Healthy  (** every seed finished *)
  | Degraded
      (** some seed deadlocked, livelocked, starved, crashed or was
          cancelled *)
  | Failed  (** nothing ran: every seed crashed, or the pipeline did *)

type health = {
  h_seeds : int;
  h_finished : int;
  h_deadlocked : int;
  h_livelocked : int;
  h_fuel_exhausted : int;
  h_faulted : int;
  h_crashed : int;
  h_cancelled : int;
  h_verdict : health_verdict;
  h_notes : string list; (* pipeline and per-seed crash messages *)
}
(** Self-diagnosis of a detector run: how each seed ended and an overall
    verdict.  [run] always returns one — it never raises, whatever the
    program or the injected perturbations do. *)

type prediction = {
  pr_sections : int;  (** recorded sections actually predicted from *)
  pr_events : int;  (** decoded events consumed across them *)
  pr_candidates : int;
  pr_predicted : int;
      (** races the predictor reported (per-section, before the merge
          dedups contexts) *)
  pr_new_contexts : int;
      (** contexts the prediction added beyond the observed ones — the
          predictive headroom over the executions that ran *)
  pr_closure_steps : int;
  pr_budget_hits : int;
  pr_notes : string list;
      (** skipped sections (undecodable or crashed recordings) — a
          salvaged chaos trace degrades coverage, never correctness *)
}
(** What a predictive analysis did: {!Sp_predict} statistics summed over
    the sections consumed, plus how many merged contexts are new. *)

type result = {
  mode : Config.mode;
  merged : Report.t;
      (* union of warnings over all seeds; predicted races (tagged
         [r_predicted]) follow the observed ones *)
  runs : seed_run list; (* in seed order, whatever the pool did *)
  n_spin_loops : int; (* accepted by the instrumentation phase *)
  static_cv_hazards : Cv_checker.diagnostic list;
      (* waits without a predicate re-check loop *)
  health : health;
  prediction : prediction option;
      (* [Some] iff the run's analysis was [Predict] or [Both] and at
         least one seed ran *)
}

(** {1 Entry points} *)

val predict_limit : int
(** Recorded executions a [Predict] analysis consumes (2).  The
    differential gate promises every race the full sweep finds from at
    most this many recordings, so it is contract, not tuning. *)

val run : ?ctx:ctx -> ?mode:Config.mode -> Input.t -> result
(** The one front door.  [Text] input is parsed and validated ([Failed]
    health on errors), [Program] runs as is, and [Recorded_trace] is
    dispatched to {!replay} — the machine never executes for a trace,
    and [mode] (if given) must agree with the recorded one.  [mode]
    defaults to {!default_mode} for text/program inputs and to the
    recorded mode for traces.

    [Options.analysis] selects how races are found.  [Sweep] (default)
    is the pure dynamic path.  [Predict] runs only the first
    {!predict_limit} seeds with recording on and predicts
    sync-preserving races from their traces
    ({!Arde_predict.Sp_predict}); [Both] sweeps every seed and predicts
    from the first recordings.  Either way predicted races are merged
    after the observed ones with [r_predicted] set on genuinely new
    contexts, and [result.prediction] carries the statistics.  For a
    [Recorded_trace] the analysis knob is read from [ctx] — a [Predict]
    request predicts from the recording's existing sections on top of
    the pinned replay, executing nothing.

    Fault-isolated and parallel: each seed executes in a sandbox on the
    domain pool, so one seed crashing (or the whole pipeline failing to
    prepare the program) yields a [Crashed] seed outcome / [Failed]
    health record while every healthy seed's warnings are still merged.
    The merged report, health verdict and run list are independent of
    [Options.jobs]; a [jobs] request beyond the host core count is
    clamped, with a note recorded in [health.h_notes].  This function
    does not raise. *)

val replay : ?ctx:ctx -> Recorded.t -> result
(** Run detection over a recording without executing the machine: each
    recorded section streams through a fresh engine (and the CV
    checker) on the domain pool, and the machine-side half of every
    seed — outcome, steps, check failures — is taken from the section
    trailer.  Mode, sensitivity, cap and seeds come from the recording
    (a replayed result is byte-identical to the live run that recorded
    it); [ctx] contributes only engine choice, pool and cancellation.
    Does not raise: an undecodable section becomes a [Crashed] seed
    carrying the partial report. *)

type recording = {
  rec_trace : string;  (** the complete binary trace *)
  rec_result : result option;  (** the live result when [detect] was on *)
}

val record :
  ?ctx:ctx ->
  ?mode:Config.mode ->
  ?detect:bool ->
  ?source:string ->
  Input.t ->
  (recording, string) Stdlib.result
(** Execute the program across [ctx]'s seeds with a {!Trace_codec} sink
    attached and assemble the binary trace.  With [detect] (default
    [false]) the full engine pipeline runs alongside and the live result
    is returned too — the sink sits between the chaos injector and the
    engine, so the recorded stream is exactly what the engine saw.
    Without it, only the injector and the sink observe the run: the
    cheap recording mode whose overhead the bench gate bounds against
    the quiet fast path.

    [source] is a free-form origin label stored in the header (the CLI
    stores the workload name).  [Error] covers inputs that cannot be
    recorded: unparseable text, a pipeline that fails to prepare, or a
    recording given as input.  The two modes differ at the edges: with
    [detect], an empty seed list is an [Error] and a failed prepare reads
    ["pipeline: <msg>"]; without it, an empty seed list seals a
    zero-section trace and a failed prepare reads ["<msg>"]. *)

(** {1 Inspection helpers} *)

val mean_contexts : result -> float
(** Average distinct racy contexts per seed — the paper's table entry. *)

val racy_bases : result -> string list

val any_bad_outcome : result -> seed_outcome option
(** First seed outcome that is not [Completed Finished], if any. *)

val pp_seed_outcome : Format.formatter -> seed_outcome -> unit
val verdict_name : health_verdict -> string

val verdict_of_name : string -> health_verdict option
(** Inverse of {!verdict_name}. *)

val pp_health : Format.formatter -> health -> unit

(** {1 Stable serialized forms}

    The [--format json] wire contract: CI and the bench harness consume
    these instead of scraping pretty-printed text. *)

val health_to_json : health -> Arde_util.Json.t
val health_of_json : Arde_util.Json.t -> (health, string) Stdlib.result
(** [health_of_json (health_to_json h) = Ok h]. *)

val seed_run_to_json : seed_run -> Arde_util.Json.t
(** Counters plus rendered outcome/diagnostic strings (not invertible). *)

val prediction_to_json : prediction -> Arde_util.Json.t

val result_to_json : result -> Arde_util.Json.t
(** Mode, spin-loop count, merged report ({!Report.to_json}), per-seed
    runs, static hazards, health — plus a ["prediction"] object when
    the analysis predicted (absent otherwise, keeping pinned sweep
    documents byte-stable). *)

val compare_on_trace :
  ?options:options ->
  k:int ->
  program ->
  Config.mode list ->
  (Config.mode * Report.t) list
(** Record one event trace per seed under [lib+spin(k)] (spin
    instrumentation active) and replay the {e identical} sections through
    an engine per mode, isolating the algorithmic differences between
    detectors from schedule variance.  Spin-less modes replay without the
    loop metadata.  The recording honours [options] like {!record} does —
    [count_callee_blocks], [inject], [jobs] included — and the reports
    are independent of [jobs].  Modes that require lowering run a
    different program and are rejected.

    @raise Invalid_argument on a [needs_lowering] mode.
    @raise Failure if the static half fails to prepare the program. *)
