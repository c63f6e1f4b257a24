(** Shared plumbing for the serving stack.

    {2 EINTR}

    The supervisor fields SIGTERM/SIGINT/SIGCHLD while sitting in
    syscalls, and clients take signals from the shells that drive them;
    a signal landing mid-[read] must never surface as a spurious
    [internal] error.  Every blocking syscall the serving stack performs
    goes through these wrappers, which simply retry on [EINTR]
    ([Unix.select] is the one exception: its callers treat [EINTR] as a
    timeout so the loop re-examines its wake flags). *)

val retry_eintr : (unit -> 'a) -> 'a
(** Re-run [f] until it returns without raising [EINTR]. *)

val read : Unix.file_descr -> Bytes.t -> int -> int -> int
val write_substring : Unix.file_descr -> string -> int -> int -> int

val accept :
  ?cloexec:bool -> Unix.file_descr -> Unix.file_descr * Unix.sockaddr

val connect : Unix.file_descr -> Unix.sockaddr -> unit
val waitpid : Unix.wait_flag list -> int -> int * Unix.process_status

val write_all : Unix.file_descr -> string -> unit
(** Blocking full write (client side; the supervisor uses {!outbuf}). *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin.  Every
    serving deadline, watchdog, backoff and grace period reads this, so
    a wall-clock step never fires or stalls one; timestamps that are
    stored or compared with file times stay on [Unix.gettimeofday]. *)

val sleepf : float -> unit
(** [Unix.sleepf] that naps again after a signal until the full duration
    has elapsed. *)

val resolve_host : string -> Unix.inet_addr
(** Hostname to address, biased toward resolver-free containers: [""]
    and ["localhost"] map straight to loopback, numeric addresses parse
    without NSS, anything else goes through [gethostbyname].
    @raise Not_found when the name does not resolve. *)

(** {2 Non-blocking output buffering}

    The supervisor serves every connection and worker pipe from one
    thread, so writes must never block: frames are pushed whole into an
    {!outbuf} and flushed when [select] reports writability.  A slow or
    wedged peer shows up as a growing {!outbuf_size}. *)

type outbuf

val outbuf : unit -> outbuf
val outbuf_push : outbuf -> string -> unit
val outbuf_size : outbuf -> int
val outbuf_is_empty : outbuf -> bool

type flush_result =
  | Flushed  (** nothing left buffered *)
  | Partial  (** the fd stopped accepting bytes; select for writability *)
  | Peer_gone  (** EPIPE/ECONNRESET/EBADF: the owner should reap the fd *)

val outbuf_flush : outbuf -> Unix.file_descr -> flush_result

(** {2 Durable file writes} *)

val write_file_atomic : string -> string -> (unit, string) result
(** Write-tmp-then-rename so a crash mid-write never leaves a torn
    file — the spool's durability primitive. *)

val read_file : string -> (string, string) result
