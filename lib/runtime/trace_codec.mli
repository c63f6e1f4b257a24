(** The compact binary trace format — record cheap, analyze later.

    A recorded trace is the detector's input decoupled from execution:
    the machine runs once with a {!sink} attached (near the cost of the
    quiet fast path), and the expensive analysis replays the byte stream
    through an engine any number of times, on any host, without
    re-running the program (Ronsse & De Bosschere's record/replay split).

    {2 Wire layout}

    All integers are LEB128 varints over the int's 63-bit pattern
    (at most 9 bytes); [signed] fields are zigzag-folded first so small
    negatives stay short.  Strings are length-prefixed bytes.

    {v
    file    := magic "ARDETRC\x01" · varint version
               header · section* · 0xEE · EOF
    header  := str digest_hex · str mode_id · str options_json
               · str source · str program_text
    section := 0xA5 · varint seed · u8 kind
               kind 0 (recorded):  varint n_events · varint events_len
                                   · events_len bytes · varint fnv_hash
                                   · trailer
               kind 1 (cancelled): nothing further
    trailer := outcome · varint steps
               · varint n · (loc · str msg)^n     (check failures)
    v}

    Event bytes are self-contained per section (sections are recorded by
    parallel seeds and decode independently).  An event is a tag byte
    followed by its fields.  Two interning schemes keep it compact and
    the encoder allocation-free:

    - {b Strings} (function names, block labels, sync bases) are
      interned on first occurrence within the section: a reference is
      [varint 0] followed by the length-prefixed definition the first
      time, [varint k] for table entry [k-1] afterwards.
    - {b Read/write bases} ride the machine's dense base-id vocabulary:
      the common form is [varint (base_id+1)], with the base string
      defined inline (length-prefixed) at the id's first occurrence.
      [varint 0] escapes to an explicit string reference plus signed id,
      for producers without an intern table ([base_id < 0]) or whose
      id→string mapping is not functional — so decoding is exact for
      hand-built streams too.

    Source locations are not interned as records: a loc is two string
    references plus a signed index.  That choice is what keeps the
    recording fast path cheap — a direct-mapped cache in front of the
    intern table resolves hot strings with one short comparison, and no
    loc record is ever hashed.  A hot read in a hot loop costs
    ~8 bytes.

    The per-section FNV hash is verified by {!read_sections}, so a
    corrupted body is a structured {!error}, never a plausible decode.
    Everything here returns structured errors on hostile input —
    truncation, overlong varints, interning references out of range,
    oversized declared lengths — because traces cross the serve socket.

    The typed view (parsed mode, options, program) lives in
    [Arde.Recorded]; this module knows only bytes, events and outcomes. *)

open Arde_tir.Types

(** {1 Errors} *)

type error =
  | Bad_magic  (** not a trace file *)
  | Bad_version of int  (** a future (or corrupt) format version *)
  | Truncated of string  (** input ended while reading the named piece *)
  | Corrupt of { at : int; what : string }
      (** structurally invalid at byte offset [at] *)
  | Limit of string  (** a declared size exceeds this reader's bounds *)

val error_to_string : error -> string
val format_version : int

(** {1 Header} *)

type header = {
  h_digest : string;  (** hex digest of the canonical program text *)
  h_mode : string;  (** detector mode, [Config.mode_id] wire form *)
  h_options : string;  (** minified [Options.to_json] document *)
  h_source : string;  (** free-form label (workload name); may be [""] *)
  h_program : string;  (** the program, canonical TIR text *)
}

(** {1 Outcomes}

    The machine-side half of a seed's run — what replay cannot recompute
    without executing.  Mirrors [Machine.outcome] plus the driver's
    crashed/cancelled seed outcomes, but structurally, so this module
    stays independent of the machine. *)

type livelock_site = {
  w_tid : int;
  w_loop : int;
  w_loc : loc;
  w_bases : string list;
}

type outcome =
  | Finished
  | Deadlock of int list
  | Fuel_exhausted
  | Livelock of livelock_site list
  | Fault of { ftid : int; floc : loc; msg : string }
  | Crashed of loc option * string
      (** the detector crashed on this seed; events are the prefix the
          engine saw before dying *)
  | Cancelled  (** the seed never ran (deadline or drain) *)

type trailer = {
  t_outcome : outcome;
  t_steps : int;
  t_check_failures : (loc * string) list;
}

(** {1 Recording} *)

type sink
(** A per-seed recording encoder: preallocated growable buffer plus the
    section's interning tables.  Appending an event writes tag and
    varints in place — no per-event allocation beyond the (rare) first
    occurrence of a string or base id. *)

val sink : ?capacity:int -> unit -> sink
(** [capacity] is the initial buffer size in bytes (default 8 KiB); the
    buffer doubles when full. *)

val sink_observer : sink -> Observer.t
(** The recording observer: feed it to the machine (tee'd ahead of the
    engine when recording a live detection run). *)

val sink_events : sink -> int
val sink_size : sink -> int  (** encoded bytes so far *)

(** {1 Sections and assembly} *)

type section = {
  s_seed : int;
  s_n_events : int;
  s_events : string;  (** encoded event bytes; [""] for [Cancelled] *)
  s_hash : int;  (** FNV-1a-style hash of [s_events] *)
  s_trailer : trailer;
}

val section_of_sink : sink -> seed:int -> trailer -> section
(** Seal the sink into a section (copies the buffer; the sink should be
    discarded). *)

val cancelled_section : seed:int -> section

val assemble : header -> section list -> string
(** The complete binary trace, sections in the given (seed) order. *)

(** {1 Reading} *)

val read_header : string -> (header, error) result
(** Decode the header only — [arde trace info]'s cheap path; the rest of
    the input is not validated. *)

type summary = {
  y_seed : int;
  y_n_events : int;
  y_bytes : int;  (** encoded event bytes *)
  y_outcome : outcome;
  y_steps : int;
}

val read_info : string -> (header * summary list, error) result
(** Header plus per-seed summaries, skipping over every event body
    (validates framing, not content). *)

val read_sections : string -> (header * section list, error) result
(** Full structural validation including the per-section event hash;
    event bodies stay encoded (decode per section as needed). *)

val decode_events : section -> (Event.t -> unit) -> (unit, error) result
(** Stream the section's events in recorded order.  The callback must
    not raise (a replay engine never does); structural errors stop the
    stream and are returned. *)

val decode_events_list : section -> (Event.t list, error) result

val encode_events : Event.t list -> string * int
(** [events → (bytes, hash)] through a fresh sink — the codec-test and
    bench path; recording proper uses {!sink_observer}. *)

(** {1 Wire primitives}

    The varint/zigzag/length-prefix building blocks, exposed so other
    binary codecs (the serve bundle store, [Arde_server.Store]) share
    one implementation and one set of hostile-input checks instead of
    reinventing them.  A {!sink} doubles as a plain byte builder: ignore
    the interning tables and use only these writers, then take
    {!sink_contents}. *)

val put_u8 : sink -> int -> unit
val put_varint : sink -> int -> unit
(** LEB128 over the int's 63-bit pattern; at most 9 bytes. *)

val put_signed : sink -> int -> unit
(** Zigzag-folded {!put_varint}. *)

val put_lpstr : sink -> string -> unit
(** Varint length prefix, then the bytes. *)

val sink_contents : sink -> string
(** The bytes written so far, as a fresh string. *)

val hash_bytes : string -> int
(** The FNV-1a integrity hash used for section bodies — exposed so other
    on-disk formats (the serve bundle store) checksum with the same
    function.  Always non-negative, so it round-trips {!put_varint}. *)

exception Err of error
(** Raised by the [get_*] readers below (and only by them — the
    document-level entry points above catch it and return [result]). *)

type reader
(** A bounded cursor over encoded bytes; all reads check the window and
    raise {!Err} on truncation or structural garbage. *)

val reader : ?off:int -> ?limit:int -> string -> reader
val reader_pos : reader -> int
val reader_left : reader -> int  (** bytes remaining in the window *)

val get_u8 : reader -> string -> int
val get_varint : reader -> string -> int
val get_signed : reader -> string -> int

val get_lpstr : reader -> string -> string
(** Length-prefixed string, capped at the trace format's 16 MiB string
    limit. *)

val get_lpbytes : reader -> string -> string
(** Length-prefixed bytes bounded only by the reader's window — for
    payloads whose size is policed elsewhere (the serve frame cap).

    The [string] argument on every reader names the piece being read,
    so {!error} messages locate the failure ("truncated … in [what]"). *)
