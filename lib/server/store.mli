(** On-disk content-addressed store for prepared analysis bundles.

    The in-memory {!Arde.Analysis_cache} makes repeat submissions fast
    but is process-private: every daemon restart and every supervised
    worker respawn pays the full preparation cost again — dominated not
    by parsing or compilation (milliseconds) but by the machine's
    per-instrumentation spin cache, hundreds of milliseconds on the
    PARSEC-scale programs.  This store persists prepared bundles to a
    directory shared by every worker of a daemon (and by successive
    daemons), keyed by the same [(digest, mode, style, count_callees)]
    tuple the memory cache uses, so a restarted or sibling worker starts
    warm from earlier work.

    {b Entry format.}  One file per key, named by an MD5 over the
    length-prefixed key components, holding
    [magic · version · lpbytes body · varint fnv(body)] encoded with
    {!Arde.Trace_codec}'s primitives.  The body echoes the key, then
    carries the processed (lowered) program text, the
    condition-variable and inferred-lock lists, and the spin cache as
    plain int arrays.  Loading re-parses and re-compiles the text and
    re-derives the instrumentation — all cheap — and installs the
    deserialized spin cache, skipping the one expensive build.

    {b Durability and failure.}  Writes go to a pid-unique tmp file and
    rename into place, so readers never observe a partial entry and
    racing workers degenerate to last-writer-wins with byte-identical
    content (the encoding is deterministic).  Every load failure —
    truncation, checksum mismatch, unknown version, key echo mismatch,
    unparsable program, spin-cache shape mismatch — is fail-open: the
    entry is deleted, the load reports [Corrupt], and the caller
    recomputes.  Write failures (ENOSPC and friends) report
    [Save_failed] and serving degrades to compute-only.  Nothing in
    this module is ever fatal to the worker.  The store keeps no
    counters: {!Arde.Analysis_cache} counts the outcomes it reports.

    {b Sweep.}  After each write-back the directory is swept
    oldest-mtime-first down to the size bound; a disk hit freshens its
    entry's mtime, making the policy LRU. *)

type t

val create : ?max_mb:int -> dir:string -> unit -> (t, string) result
(** Open (creating if needed) the store directory.  [max_mb] bounds the
    directory size for the post-write sweep (default
    {!default_max_mb}). *)

val default_max_mb : int

val dir : t -> string

val analysis_store : t -> Arde.Analysis_cache.store
(** The hook to register with {!Arde.Analysis_cache.set_store}: load on
    memory miss, save on fresh compute. *)

val usage : t -> int * int
(** [(entries, bytes)] currently on disk. *)

(** {2 Administration — the [arde cache] subcommand} *)

type entry_info = {
  e_path : string;
  e_digest_hex : string;
  e_mode : string;
  e_style : string;
  e_count_callees : bool;
  e_bytes : int;
  e_age_s : float;
}

val entries : t -> entry_info list
(** Every readable entry, most recently used first.  Unreadable entries
    are skipped (use {!verify} to delete them). *)

val gc : t -> max_bytes:int -> int
(** Sweep oldest-first down to [max_bytes]; returns entries removed. *)

val clear : t -> int
(** Delete every entry; returns entries removed. *)

val verify : t -> int * int
(** Full checksum walk: [(kept, deleted)].  Corrupt entries are
    deleted. *)

(**/**)

(* Exposed for tests: the raw codec and naming. *)
val encode :
  digest:string ->
  mode_id:string ->
  style:Arde.Lower.style ->
  count_callees:bool ->
  Arde.Analysis_cache.prepared ->
  string

val entry_path :
  t ->
  digest:string ->
  mode_id:string ->
  style:Arde.Lower.style ->
  count_callees:bool ->
  string
