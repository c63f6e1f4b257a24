(** Process-wide cache for the static half of the pipeline.

    Lowering, spin instrumentation, the condition-variable scan, lock
    inference and compilation are pure functions of the program and a
    handful of knobs, yet the harnesses re-run them constantly: the
    suite analyzes each case once per detector configuration, a chaos
    storm analyzes the same program hundreds of times, a bench sweep
    repeats whole suites, and the serve daemon sees the same program on
    every repeat submission.  This cache holds one kind of object, the
    {!prepared} bundle, keyed by [(digest, mode, style, count_callees)]
    and resolved memory → {!store} (when one is registered) → compute.
    A prepared hit is what lets a repeat submission skip straight to
    per-seed execution: the compiled form also carries the machine's
    per-instrumentation spin cache, so even that one-time cost survives
    across requests.

    The digest is of the program's canonical pretty-printed form, which
    the parser round-trips, so equal-printing programs are genuinely
    interchangeable.  Computing it costs a full pretty-print; callers
    that already hold a digest uniquely identifying the program (the
    serve daemon digests each request's program text anyway) pass it as
    [?digest] to {!prepare}, which then pretty-prints nothing.
    Cached values are immutable after construction (the compiled form's
    internal spin cache is lock-free) and therefore safe to share across
    the driver's worker domains; the cache itself is mutex-guarded, so
    concurrent [Driver.run] calls may share it too.

    The memory tier is bounded ([max_prepared] entries, oldest evicted)
    because each entry pins a compiled machine and a parsed program.

    The cache is on by default.  [set_enabled false] makes all lookups
    recompute (and record misses) — used by the bench harness to measure
    the cache's contribution, and by tests comparing cached against
    fresh results. *)

type prepared = {
  p_source : Arde_tir.Types.program;
      (** the program as given to {!prepare}; the same value as
          [p_program] when the mode does not lower *)
  p_program : Arde_tir.Types.program;  (** lowered iff the mode lowers *)
  p_instrument : Arde_cfg.Instrument.t option;
  p_cv_mutexes : string list;
  p_inferred_locks : string list;
  p_compiled : Arde_runtime.Machine.compiled;
}

val max_prepared : int
(** The memory tier's bound, in bundles. *)

val prepare :
  ?digest:string ->
  style:Arde_tir.Lower.style ->
  count_callees:bool ->
  Config.mode ->
  Arde_tir.Types.program ->
  prepared
(** The full static half for one (program, mode): what {!Driver.run}
    does before any seed executes.  [?digest] must uniquely identify
    [program] (any injective digest will do — the canonical one and the
    serve daemon's request-text digest coexist as distinct keys);
    omitted, the canonical digest is computed here. *)

val find :
  digest:string ->
  style:Arde_tir.Lower.style ->
  count_callees:bool ->
  Config.mode ->
  prepared option
(** Memory-only lookup of what {!prepare} [~digest] would hit; counts
    nothing and never consults the store.  The serve worker uses it to
    take a repeat's parsed program ([p_source]) without parsing. *)

val digest_of_program : Arde_tir.Types.program -> string
(** Digest of the program's canonical pretty-printed form — the cache's
    native key. *)

(** {2 Counters} *)

type stats = {
  prepare_hits : int;  (** {!prepare} calls served from memory *)
  prepare_misses : int;
      (** {!prepare} calls that went to the store or computed, including
          every call made while the cache is disabled *)
  disk_hits : int;  (** bundles the store supplied *)
  disk_misses : int;  (** store lookups finding no entry *)
  saves : int;  (** successful store write-backs *)
  evictions : int;  (** store entries removed by its post-write sweep *)
  corrupt_recovered : int;  (** corrupt store entries deleted and recomputed *)
  store_errors : int;  (** failed store writes (ENOSPC, …) *)
}

val zero_stats : stats

val stats : unit -> stats
(** Counters since the last {!reset_stats}. *)

val stats_delta : before:stats -> after:stats -> stats
(** Counter movement between two snapshots — what one request did. *)

val stats_to_json : stats -> Arde_util.Json.t
(** [{prepare_hits, prepare_misses}]: the ["analysis_cache"] object
    [arde run --format json], the serve responses and the bench
    artifacts all carry. *)

val store_stats_to_json : stats -> Arde_util.Json.t
(** [{disk_hits, disk_misses, saves, evictions, corrupt_recovered,
    store_errors}]: the ["store"] object a serve response, a worker's
    [done] frame and [arde stats] carry when a store is configured. *)

val reset_stats : unit -> unit

val clear : unit -> unit
(** Drop every entry (counters survive; use {!reset_stats} for those). *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {2 Second-level store}

    An optional persistent cache level consulted between the in-memory
    table and a fresh computation: {!prepare} resolves a miss as
    memory → [store_load] → compute, and calls [store_save] only for
    freshly computed bundles (never for ones the store itself supplied).
    A loaded bundle's [p_source] is replaced by the caller's program.
    The serve worker registers the on-disk content-addressed bundle
    store here; the indirection exists because that store lives in
    [Arde_server], which depends on this library.

    The store keeps no counters: each callback reports what happened and
    {!prepare} counts it into {!stats}.

    Both callbacks run outside the cache mutex and inside the key's
    single-flight section: for any given key at most one caller is
    loading/computing/saving at a time within this process, concurrent
    callers wait and reuse the published result.  Callbacks must not
    call back into {!prepare}. *)

type store_key = {
  sk_digest : string;  (** the {!prepare} [?digest], verbatim *)
  sk_mode : Config.mode;
  sk_style : Arde_tir.Lower.style;
  sk_count_callees : bool;
}

type load =
  | Loaded of prepared
  | Absent  (** no entry *)
  | Corrupt  (** an unusable entry, already deleted *)

type save =
  | Saved of { evicted : int }  (** written; [evicted] entries swept *)
  | Save_failed

type store = {
  store_load : store_key -> load;
  store_save : store_key -> prepared -> save;
}

val set_store : store option -> unit
(** Register (or, with [None], remove) the second cache level.  The
    store is only consulted while the cache is enabled. *)
