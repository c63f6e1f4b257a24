(** The one measurement skeleton every [bench] subcommand shares:
    elapsed time on the monotonic clock, GC allocation from the
    collector's own counters, and a warm-up-discarding repetition loop
    reduced to medians. *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin; never
    steps backwards with the wall clock. *)

val median : float list -> float
(** The upper median (element [n/2] of the sorted list; for an even
    length, the larger of the two middle elements).  Raises
    [Invalid_argument] on an empty list. *)

val percentile : float -> float list -> float
(** [percentile q l], for [q] in [(0, 1]]: the nearest-rank percentile
    (element [ceil (q * n) - 1] of the sorted list), so [percentile 1.]
    is the maximum.  [0.] on an empty list. *)

val alloc_words : unit -> float
(** Words allocated so far by this domain: minor + major - promoted
    (promoted words would otherwise be counted twice).  Reads
    [Gc.quick_stat], which does not walk the heap. *)

val timed :
  repeats:int -> ?setup:(unit -> unit) -> (unit -> 'a) -> float * float * 'a
(** [timed ~repeats f] runs [f] once as a discarded warm-up, then
    [repeats] more times, and returns the median time in seconds, the
    median words allocated, and the last run's result.  [setup], when
    given, runs before every call of [f] (the warm-up's too) outside the
    timed and counted window. *)
