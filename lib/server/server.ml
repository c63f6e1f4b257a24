(* The crash-only detection daemon: a domain-free supervisor event loop.
   See server.mli for the architecture and shutdown story. *)

module J = Arde.Json
module P = Protocol

type config = {
  socket_path : string;
  tcp : (string * int) option;
  workers : int;
  max_pending : int;
  max_frame : int;
  jobs : int;
  default_deadline_ms : int option;
  watchdog_ms : int;
  watchdog_grace_ms : int;
  restart_backoff_ms : int;
  restart_backoff_max_ms : int;
  breaker_threshold : int;
  breaker_window_s : float;
  spool_dir : string option;
  store_dir : string option;
  store_max_mb : int;
  chaos_plan : string;
  worker_exec : string option;
  log : string -> unit;
}

let config ?tcp ?(workers = 2) ?(max_pending = 64)
    ?(max_frame = P.default_max_frame) ?(jobs = 0) ?default_deadline_ms
    ?(watchdog_ms = 120_000) ?(watchdog_grace_ms = 2_000)
    ?(restart_backoff_ms = 100) ?(restart_backoff_max_ms = 5_000)
    ?(breaker_threshold = 5) ?(breaker_window_s = 10.) ?spool_dir ?store_dir
    ?(store_max_mb = Store.default_max_mb) ?(chaos_plan = "") ?worker_exec
    ?(log = ignore) ~socket_path () =
  {
    socket_path;
    tcp;
    workers = (if workers <= 0 then 2 else workers);
    max_pending;
    max_frame;
    jobs;
    default_deadline_ms;
    watchdog_ms;
    watchdog_grace_ms;
    restart_backoff_ms;
    restart_backoff_max_ms;
    breaker_threshold;
    breaker_window_s;
    spool_dir;
    store_dir;
    store_max_mb;
    chaos_plan;
    worker_exec;
    log;
  }

(* One client connection.  The supervisor is single-threaded, so no
   locks: writes are buffered in [c_out] and flushed as the socket
   accepts them. *)
type conn = {
  c_fd : Unix.file_descr;
  c_dec : P.decoder;
  c_out : Util.outbuf;
  mutable c_alive : bool;
}

type counters = {
  mutable received : int;
  mutable ok : int;
  mutable pings : int;
  mutable stats_reqs : int;
  mutable bad_frame : int;
  mutable bad_request : int;
  mutable overloaded : int;
  mutable rejected_draining : int;
  mutable internal_errors : int;
  mutable worker_crashed : int;
  mutable deadline_expired : int;
  mutable retries : int; (* requests that declared themselves a retry *)
  mutable spool_errors : int; (* journal writes that failed (best-effort) *)
}

type job = {
  j_id : int;
  j_conn : conn;
  j_req : P.run_request;
  j_raw : string; (* the wire request bytes, forwarded verbatim *)
  j_digest : string;
  j_deadline_at : float option; (* absolute expiry while still queued *)
  j_watch_s : float; (* watchdog budget once dispatched *)
}

type t = {
  cfg : config;
  listen_fds : Unix.file_descr list;
      (* the Unix socket, plus the TCP listener when configured; both
         accept into the same connection table and frame loop *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  sup : Supervisor.t;
  sched : job Scheduler.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  inflight : job option array; (* per worker slot *)
  (* A worker's [done] header whose response-bytes frame has not arrived
     yet: (job id, spool_error, outcome code, store delta), per slot. *)
  pending_done : (int * bool * string * J.t option) option array;
  counters : counters;
  started : float;
  drain_requested : bool Atomic.t; (* set from signal handlers *)
  mutable job_seq : int;
}

(* ------------------------------------------------------------------ *)
(* Plumbing                                                           *)

let close_conn t conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end;
  Hashtbl.remove t.conns conn.c_fd

let send_bytes t conn payload =
  if conn.c_alive then begin
    Util.outbuf_push conn.c_out (P.frame payload);
    (* A client that stops reading must not pin response memory forever. *)
    if Util.outbuf_size conn.c_out > 4 * t.cfg.max_frame then begin
      t.cfg.log "dropping connection with an unread response backlog";
      close_conn t conn
    end
    else
      match Util.outbuf_flush conn.c_out conn.c_fd with
      | Util.Flushed | Util.Partial -> ()
      | Util.Peer_gone -> close_conn t conn
  end

let send t conn json =
  send_bytes t conn (J.to_string json);
  t.cfg.log
    (if P.response_ok json then "sent ok response"
     else
       match P.response_error json with
       | Some (code, _) -> "sent error response: " ^ code
       | None -> "sent response")

(* A worker-built response crosses the supervisor as opaque bytes — the
   outcome code travelled in the [done] header, so nothing here needs to
   parse a response that can be hundreds of kilobytes. *)
let send_raw t conn ~code raw =
  send_bytes t conn raw;
  t.cfg.log ("forwarded worker response: " ^ code)

let wake t =
  try ignore (Unix.write_substring t.wake_w "w" 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF | EINTR), _, _)
  -> ()

let initiate_drain t =
  Atomic.set t.drain_requested true;
  wake t

let handle_signals t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let h = Sys.Signal_handle (fun _ -> initiate_drain t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)

let stats_json t =
  let c = t.counters in
  let breaker_open = ref 0 in
  for i = 0 to Supervisor.n_workers t.sup - 1 do
    if (Supervisor.worker t.sup i).Supervisor.w_state = Supervisor.Broken then
      incr breaker_open
  done;
  let spool = Supervisor.spool t.sup in
  J.Obj
    [
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.started));
      ( "requests",
        J.Obj
          [
            ("received", J.Int c.received);
            ("ok", J.Int c.ok);
            ("ping", J.Int c.pings);
            ("stats", J.Int c.stats_reqs);
            ("bad_frame", J.Int c.bad_frame);
            ("bad_request", J.Int c.bad_request);
            ("overloaded", J.Int c.overloaded);
            ("rejected_draining", J.Int c.rejected_draining);
            ("internal", J.Int c.internal_errors);
            ("worker_crashed", J.Int c.worker_crashed);
            ("deadline_expired", J.Int c.deadline_expired);
            ("retries", J.Int c.retries);
            ("spool_errors", J.Int c.spool_errors);
          ] );
      ( "queue",
        J.Obj
          [
            ("depth", J.Int (Scheduler.depth t.sched));
            ("in_flight", J.Int (Scheduler.in_flight t.sched));
            ("max_pending", J.Int t.cfg.max_pending);
            ("draining", J.Bool (Scheduler.draining t.sched));
            ("refused", J.Int (Scheduler.refused t.sched));
            ("cancelled", J.Int (Scheduler.cancelled t.sched));
          ] );
      ( "supervision",
        match Supervisor.stats_json t.sup with
        | J.Obj fields ->
            J.Obj (fields @ [ ("breaker_open", J.Int !breaker_open) ])
        | other -> other );
      ( "spool",
        J.Obj
          [
            ("dir", J.String (Spool.root spool));
            ("bundles", J.Int (List.length (Spool.bundles spool)));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)

let effective_deadline t (req : P.run_request) =
  match req.P.rq_deadline_ms with
  | Some _ as d -> d
  | None -> t.cfg.default_deadline_ms

let dispatch t =
  let now = Util.now () in
  for i = 0 to Supervisor.n_workers t.sup - 1 do
    if Supervisor.is_live t.sup i then begin
      let rec pump () =
        if not (Scheduler.busy t.sched ~slot:i) then
          match Scheduler.take t.sched ~slot:i with
          | None -> ()
          | Some job ->
              if not job.j_conn.c_alive then begin
                (* The client vanished while queued; executing would
                   waste a worker on an unanswerable request. *)
                Scheduler.finish t.sched ~slot:i;
                pump ()
              end
              else begin
                t.inflight.(i) <- Some job;
                Supervisor.note_dispatch t.sup i
                  ~kill_by:(now +. job.j_watch_s);
                (* Header frame, then the request bytes verbatim. *)
                Supervisor.send_to_worker t.sup i
                  (J.to_string
                     (P.job_frame ~job:job.j_id
                        ~digest:(Digest.to_hex job.j_digest)));
                Supervisor.send_to_worker t.sup i job.j_raw
              end
      in
      pump ()
    end
  done

(* Account a worker-reported outcome code against the counters. *)
let count_code t = function
  | "ok" -> t.counters.ok <- t.counters.ok + 1
  | "bad_request" -> t.counters.bad_request <- t.counters.bad_request + 1
  | _ -> t.counters.internal_errors <- t.counters.internal_errors + 1

(* ------------------------------------------------------------------ *)
(* Client requests                                                    *)

let handle_payload t conn payload =
  t.counters.received <- t.counters.received + 1;
  match P.parse_request payload with
  | Error (id, code, msg) ->
      (match code with
      | P.Bad_frame -> t.counters.bad_frame <- t.counters.bad_frame + 1
      | _ -> t.counters.bad_request <- t.counters.bad_request + 1);
      send t conn (P.error_response ~id code msg)
  | Ok (P.Ping id) ->
      t.counters.pings <- t.counters.pings + 1;
      send t conn (P.ok_response ~id [ ("pong", J.Bool true) ])
  | Ok (P.Stats id) ->
      t.counters.stats_reqs <- t.counters.stats_reqs + 1;
      send t conn (P.ok_response ~id [ ("stats", stats_json t) ])
  | Ok (P.Run req) -> (
      if req.P.rq_retry > 0 then
        t.counters.retries <- t.counters.retries + 1;
      let digest =
        (* Affinity key: the program digest, so a trace of a program the
           farm has seen lands on the worker whose caches are warm for
           it.  A trace whose header cannot be read still routes (by the
           raw bytes) — the worker, not the router, rejects it. *)
        match req.P.rq_payload with
        | P.Rq_program { rp_program; _ } -> Digest.string rp_program
        | P.Rq_trace trace -> (
            match Arde.Trace_codec.read_header trace with
            | Ok h -> (
                match Digest.from_hex h.Arde.Trace_codec.h_digest with
                | d -> d
                | exception Invalid_argument _ -> Digest.string trace)
            | Error _ -> Digest.string trace)
      in
      let preferred = Hashtbl.hash digest mod Supervisor.n_workers t.sup in
      match Supervisor.route t.sup ~preferred with
      | None ->
          (* Every slot's circuit is open: refuse fast and honestly
             rather than queueing behind a cooldown. *)
          t.counters.worker_crashed <- t.counters.worker_crashed + 1;
          send t conn
            (P.error_response ~id:req.P.rq_id P.Worker_crashed
               "all worker slots are broken (restart circuit open); retry \
                later")
      | Some slot -> (
          let now = Util.now () in
          let deadline = effective_deadline t req in
          let job =
            {
              j_id =
                (t.job_seq <- t.job_seq + 1;
                 t.job_seq);
              j_conn = conn;
              j_req = req;
              j_raw = payload;
              j_digest = digest;
              j_deadline_at =
                Option.map
                  (fun ms -> now +. (float_of_int ms /. 1000.))
                  deadline;
              j_watch_s =
                (match deadline with
                | Some ms ->
                    float_of_int (ms + t.cfg.watchdog_grace_ms) /. 1000.
                | None -> float_of_int t.cfg.watchdog_ms /. 1000.);
            }
          in
          match Scheduler.submit t.sched ~slot job with
          | Scheduler.Accepted -> dispatch t
          | Scheduler.Overloaded ->
              t.counters.overloaded <- t.counters.overloaded + 1;
              send t conn
                (P.error_response ~id:req.P.rq_id P.Overloaded
                   (Printf.sprintf "queue full (%d pending)"
                      t.cfg.max_pending))
          | Scheduler.Draining ->
              t.counters.rejected_draining <-
                t.counters.rejected_draining + 1;
              send t conn
                (P.error_response ~id:req.P.rq_id P.Draining
                   "server is draining and refuses new work")))

let read_buf = Bytes.create 65536

let handle_conn_readable t conn =
  match Unix.read conn.c_fd read_buf 0 (Bytes.length read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      close_conn t conn
  | 0 -> close_conn t conn (* EOF: mid-frame disconnects land here too *)
  | n ->
      P.feed conn.c_dec read_buf 0 n;
      let rec drain_frames () =
        match P.next_frame conn.c_dec with
        | P.Frame payload ->
            handle_payload t conn payload;
            if conn.c_alive then drain_frames ()
        | P.Await -> ()
        | P.Too_large announced ->
            t.counters.received <- t.counters.received + 1;
            t.counters.bad_frame <- t.counters.bad_frame + 1;
            send t conn
              (P.error_response ~id:J.Null P.Bad_frame
                 (Printf.sprintf
                    "frame of %d bytes exceeds the %d-byte limit" announced
                    t.cfg.max_frame));
            (* The stream is unframeable from here on. *)
            close_conn t conn
      in
      drain_frames ()

let accept_conn t listen_fd =
  match Util.accept listen_fd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | fd, peer ->
      Unix.set_nonblock fd;
      (* Request/response over small frames: Nagle would add whole RTTs
         of latency on the TCP listener, so switch it off. *)
      (match peer with
      | Unix.ADDR_INET _ -> (
          try Unix.setsockopt fd Unix.TCP_NODELAY true
          with Unix.Unix_error _ -> ())
      | _ -> ());
      let conn =
        {
          c_fd = fd;
          c_dec = P.decoder ~max_frame:t.cfg.max_frame ();
          c_out = Util.outbuf ();
          c_alive = true;
        }
      in
      if Scheduler.draining t.sched then begin
        (* Refuse with a structured error rather than a silent close. *)
        t.counters.rejected_draining <- t.counters.rejected_draining + 1;
        Util.outbuf_push conn.c_out
          (P.frame
             (J.to_string
                (P.error_response ~id:J.Null P.Draining
                   "server is draining and refuses new connections")));
        ignore (Util.outbuf_flush conn.c_out fd);
        conn.c_alive <- false;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Hashtbl.replace t.conns fd conn;
        t.cfg.log "accepted connection"
      end

let drain_wake_pipe t =
  match Unix.read t.wake_r read_buf 0 64 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Worker events                                                      *)

(* The response-bytes frame that completes a [done] header has arrived:
   settle the slot and forward the bytes untouched. *)
let complete_job t i ~job_id ~spool_error ~code raw =
  match t.inflight.(i) with
  | Some job when job.j_id = job_id ->
      t.inflight.(i) <- None;
      Scheduler.finish t.sched ~slot:i;
      Supervisor.note_done t.sup i;
      if spool_error then begin
        t.counters.spool_errors <- t.counters.spool_errors + 1;
        t.cfg.log (Printf.sprintf "worker %d could not journal a request" i)
      end;
      count_code t code;
      send_raw t job.j_conn ~code raw;
      dispatch t
  | Some _ | None ->
      t.cfg.log
        (Printf.sprintf "worker %d sent a stray done frame (job %d)" i job_id)

let handle_worker_msg t i msg =
  match msg with
  | P.W_hello _ ->
      Supervisor.note_hello t.sup i;
      dispatch t
  | P.W_done { wd_job; wd_spool_error; wd_code; wd_store } ->
      (* The response bytes follow in the worker's very next frame. *)
      t.pending_done.(i) <- Some (wd_job, wd_spool_error, wd_code, wd_store)

let handle_worker_readable t i =
  let w = Supervisor.worker t.sup i in
  match w.Supervisor.w_fd with
  | None -> ()
  | Some fd -> (
      match Unix.read fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          w.Supervisor.w_fd <- None (* the reaper finishes the job *)
      | 0 ->
          (* Worker exited (or tore its stream); stop selecting on the
             fd and let [reap] classify the death. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          w.Supervisor.w_fd <- None
      | n ->
          P.feed w.Supervisor.w_dec read_buf 0 n;
          let rec drain_frames () =
            match P.next_frame w.Supervisor.w_dec with
            | P.Frame payload -> (
                match t.pending_done.(i) with
                | Some (job_id, spool_error, code, store) ->
                    t.pending_done.(i) <- None;
                    (match store with
                    | Some delta -> Supervisor.note_store t.sup delta
                    | None -> ());
                    complete_job t i ~job_id ~spool_error ~code payload;
                    drain_frames ()
                | None -> (
                    match P.parse_worker_msg payload with
                    | Ok msg ->
                        handle_worker_msg t i msg;
                        drain_frames ()
                    | Error e -> (
                        (* A garbled control stream is a crash in disguise. *)
                        t.cfg.log
                          (Printf.sprintf "worker %d sent a garbled frame: %s"
                             i e);
                        w.Supervisor.w_pending_reason <-
                          Some ("garbled control frame: " ^ e);
                        if w.Supervisor.w_pid >= 0 then
                          try Unix.kill w.Supervisor.w_pid Sys.sigkill
                          with Unix.Unix_error _ -> ())))
            | P.Await -> ()
            | P.Too_large _ ->
                t.cfg.log
                  (Printf.sprintf "worker %d sent an oversized frame" i);
                w.Supervisor.w_pending_reason <- Some "oversized control frame";
                if w.Supervisor.w_pid >= 0 then (
                  try Unix.kill w.Supervisor.w_pid Sys.sigkill
                  with Unix.Unix_error _ -> ())
          in
          drain_frames ())

(* Re-route a dead slot's queued jobs.  Prefer a live slot so the work
   is served promptly; fall back to any slot whose circuit is closed
   (it will restart); refuse honestly only when nothing can run. *)
let reroute_queued t ~dead:i ~draining =
  let n = Supervisor.n_workers t.sup in
  let queued = Scheduler.drain_slot t.sched ~slot:i in
  List.iter
    (fun job ->
      let preferred = Hashtbl.hash job.j_digest mod n in
      let live_slot =
        let rec scan k =
          if k = n then None
          else
            let s = (preferred + k) mod n in
            if Supervisor.is_live t.sup s then Some s else scan (k + 1)
        in
        scan 0
      in
      let target =
        match live_slot with
        | Some _ as s -> s
        | None -> if draining then None else Supervisor.route t.sup ~preferred
      in
      match target with
      | Some slot -> Scheduler.enqueue t.sched ~slot job
      | None ->
          t.counters.worker_crashed <- t.counters.worker_crashed + 1;
          send t job.j_conn
            (P.error_response ~id:job.j_req.P.rq_id P.Worker_crashed
               "the worker slot for this request died and no other slot can \
                take it"))
    queued

let handle_deaths t deaths ~draining =
  List.iter
    (fun (d : Supervisor.death) ->
      let i = d.Supervisor.d_index in
      (* A [done] header with no response bytes behind it died with the
         worker; never let it consume the respawned worker's hello. *)
      t.pending_done.(i) <- None;
      if d.Supervisor.d_crash then begin
        (match t.inflight.(i) with
        | Some job ->
            t.inflight.(i) <- None;
            Scheduler.finish t.sched ~slot:i;
            t.counters.worker_crashed <- t.counters.worker_crashed + 1;
            let msg =
              Printf.sprintf "worker %d died mid-request (%s)%s" i
                d.Supervisor.d_reason
                (match d.Supervisor.d_bundle with
                | Some path -> "; request journaled to " ^ path
                | None -> "")
            in
            send t job.j_conn
              (P.error_response ~id:job.j_req.P.rq_id P.Worker_crashed msg)
        | None -> ());
        reroute_queued t ~dead:i ~draining
      end)
    deaths;
  if deaths <> [] then dispatch t

let expire_queued_deadlines t ~now =
  let expired =
    Scheduler.remove t.sched ~pred:(fun job ->
        match job.j_deadline_at with
        | Some at -> at <= now
        | None -> false)
  in
  List.iter
    (fun job ->
      t.counters.deadline_expired <- t.counters.deadline_expired + 1;
      send t job.j_conn
        (P.error_response ~id:job.j_req.P.rq_id P.Deadline_expired
           "deadline elapsed before the request was dispatched to a worker"))
    expired

(* ------------------------------------------------------------------ *)
(* The event loop                                                     *)

let select_sets t =
  let reads = ref (t.wake_r :: t.listen_fds) in
  let writes = ref [] in
  Hashtbl.iter
    (fun fd conn ->
      reads := fd :: !reads;
      if not (Util.outbuf_is_empty conn.c_out) then writes := fd :: !writes)
    t.conns;
  for i = 0 to Supervisor.n_workers t.sup - 1 do
    let w = Supervisor.worker t.sup i in
    match w.Supervisor.w_fd with
    | Some fd ->
        reads := fd :: !reads;
        if not (Util.outbuf_is_empty w.Supervisor.w_out) then
          writes := fd :: !writes
    | None -> ()
  done;
  (!reads, !writes)

let worker_index_of_fd t fd =
  let n = Supervisor.n_workers t.sup in
  let rec go i =
    if i = n then None
    else
      match (Supervisor.worker t.sup i).Supervisor.w_fd with
      | Some wfd when wfd = fd -> Some i
      | _ -> go (i + 1)
  in
  go 0

let handle_writable t fd =
  match Hashtbl.find_opt t.conns fd with
  | Some conn -> (
      match Util.outbuf_flush conn.c_out conn.c_fd with
      | Util.Flushed | Util.Partial -> ()
      | Util.Peer_gone -> close_conn t conn)
  | None -> (
      match worker_index_of_fd t fd with
      | Some i -> (
          let w = Supervisor.worker t.sup i in
          match Util.outbuf_flush w.Supervisor.w_out fd with
          | Util.Flushed | Util.Partial -> ()
          | Util.Peer_gone -> () (* the reaper owns worker death *))
      | None -> ())

(* After a drain completes, give buffered responses a bounded window to
   reach slow clients before the sockets close under them. *)
let final_flush t =
  let deadline = Util.now () +. 5.0 in
  let pending () =
    Hashtbl.fold
      (fun fd conn acc ->
        if conn.c_alive && not (Util.outbuf_is_empty conn.c_out) then
          fd :: acc
        else acc)
      t.conns []
  in
  let rec loop () =
    match pending () with
    | [] -> ()
    | fds when Util.now () < deadline -> (
        match Unix.select [] fds [] 0.1 with
        | exception Unix.Unix_error (EINTR, _, _) -> loop ()
        | _, writable, _ ->
            List.iter (fun fd -> handle_writable t fd) writable;
            loop ())
    | _ -> ()
  in
  loop ()

let run t =
  let rec loop () =
    let draining = Scheduler.draining t.sched in
    if Atomic.get t.drain_requested && not draining then begin
      t.cfg.log "drain initiated";
      Scheduler.begin_drain t.sched
    end;
    let draining = Scheduler.draining t.sched in
    if draining && Scheduler.idle t.sched then ()
    else begin
      let now = Util.now () in
      List.iter (fun i -> Supervisor.kill_watchdog t.sup i)
        (Supervisor.due_watchdog t.sup ~now);
      expire_queued_deadlines t ~now;
      Supervisor.respawn_due t.sup ~now ~draining;
      dispatch t;
      let timeout =
        let next = Supervisor.next_timer t.sup in
        if next = infinity then 0.2 else max 0.005 (min 0.2 (next -. now))
      in
      let reads, writes = select_sets t in
      (match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error (EBADF, _, _) ->
          (* A worker died between set construction and select; the
             reaper below clears its fd. *)
          ()
      | ready_r, ready_w, _ ->
          List.iter
            (fun fd ->
              if List.memq fd t.listen_fds then accept_conn t fd
              else if fd = t.wake_r then drain_wake_pipe t
              else
                match Hashtbl.find_opt t.conns fd with
                | Some conn -> handle_conn_readable t conn
                | None -> (
                    match worker_index_of_fd t fd with
                    | Some i -> handle_worker_readable t i
                    | None -> ()))
            ready_r;
          List.iter (fun fd -> handle_writable t fd) ready_w);
      let now = Util.now () in
      let deaths = Supervisor.reap t.sup ~now ~draining in
      handle_deaths t deaths ~draining;
      loop ()
    end
  in
  loop ();
  final_flush t;
  Supervisor.shutdown t.sup ~grace:5.0;
  Hashtbl.iter
    (fun _ conn ->
      if conn.c_alive then begin
        conn.c_alive <- false;
        try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
      end)
    t.conns;
  Hashtbl.reset t.conns;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listen_fds;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  t.cfg.log "server stopped"

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)

let socket_in_use path =
  (* A leftover socket file from a dead server must not block startup;
     a live server on the same path must. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Util.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let clear_stale_socket path =
  if not (Sys.file_exists path) then Ok ()
  else if socket_in_use path then
    Error (Printf.sprintf "socket %s is in use by a live server" path)
  else begin
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Ok ()
  end

let bind_tcp ~host ~port =
  match
    let addr = Util.resolve_host host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (addr, port));
       Unix.listen fd 64;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (err, fn, _) ->
      Error
        (Printf.sprintf "cannot bind %s:%d: %s (%s)" host port
           (Unix.error_message err) fn)
  | exception Not_found -> Error ("cannot resolve host " ^ host)

(* The TCP endpoint actually bound — the port matters when the config
   asked for 0 (ephemeral). *)
let tcp_endpoint t =
  match (t.cfg.tcp, t.listen_fds) with
  | Some _, [ _; fd ] -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (addr, port) ->
          Some (Unix.string_of_inet_addr addr, port)
      | _ | (exception Unix.Unix_error _) -> None)
  | _ -> None

let create cfg =
  let ( let* ) = Result.bind in
  let* () = clear_stale_socket cfg.socket_path in
  let* () =
    match Arde.Chaos.Serve.parse cfg.chaos_plan with
    | Ok _ -> Ok ()
    | Error e -> Error ("chaos plan: " ^ e)
  in
  let spool_root =
    Option.value cfg.spool_dir ~default:(cfg.socket_path ^ ".spool")
  in
  let* spool = Spool.create ~root:spool_root in
  let* tcp_fd =
    match cfg.tcp with
    | None -> Ok None
    | Some (host, port) -> Result.map Option.some (bind_tcp ~host ~port)
  in
  let close_tcp () =
    match tcp_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ()
  in
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
       Unix.listen fd 64;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | exception Unix.Unix_error (err, fn, _) ->
      close_tcp ();
      Error
        (Printf.sprintf "cannot bind %s: %s (%s)" cfg.socket_path
           (Unix.error_message err) fn)
  | listen_fd -> (
      let knobs =
        {
          Supervisor.k_exec =
            Option.value cfg.worker_exec ~default:Sys.executable_name;
          k_spool_root = spool_root;
          k_jobs = cfg.jobs;
          k_max_frame = cfg.max_frame;
          k_chaos_plan = cfg.chaos_plan;
          k_store_dir = Option.value cfg.store_dir ~default:"";
          k_store_max_mb = cfg.store_max_mb;
          k_restart_backoff_ms = cfg.restart_backoff_ms;
          k_restart_backoff_max_ms = cfg.restart_backoff_max_ms;
          k_breaker_threshold = cfg.breaker_threshold;
          k_breaker_window_s = cfg.breaker_window_s;
          k_log = cfg.log;
        }
      in
      match Supervisor.create ~knobs ~spool ~workers:cfg.workers with
      | exception e ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          close_tcp ();
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
          Error ("cannot spawn workers: " ^ Printexc.to_string e)
      | sup ->
          let wake_r, wake_w = Unix.pipe () in
          Unix.set_nonblock wake_w;
          Unix.set_nonblock wake_r;
          let t =
            {
              cfg;
              listen_fds =
                (listen_fd
                :: (match tcp_fd with Some fd -> [ fd ] | None -> []));
              wake_r;
              wake_w;
              sup;
              sched =
                Scheduler.create ~workers:cfg.workers
                  ~max_pending:cfg.max_pending;
              conns = Hashtbl.create 16;
              inflight = Array.make (Supervisor.n_workers sup) None;
              pending_done = Array.make (Supervisor.n_workers sup) None;
              counters =
                {
                  received = 0;
                  ok = 0;
                  pings = 0;
                  stats_reqs = 0;
                  bad_frame = 0;
                  bad_request = 0;
                  overloaded = 0;
                  rejected_draining = 0;
                  internal_errors = 0;
                  worker_crashed = 0;
                  deadline_expired = 0;
                  retries = 0;
                  spool_errors = 0;
                };
              started = Unix.gettimeofday ();
              drain_requested = Atomic.make false;
              job_seq = 0;
            }
          in
          t.cfg.log
            (Printf.sprintf "listening on %s%s (%d workers)" cfg.socket_path
               (* Report the bound address, not the requested one — the
                  difference is the whole point of asking for port 0. *)
               (match tcp_endpoint t with
               | Some (h, p) -> Printf.sprintf " and tcp %s:%d" h p
               | None -> "")
               (Supervisor.n_workers sup));
          Ok t)
