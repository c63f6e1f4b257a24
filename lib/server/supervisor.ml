(* Worker-process lifecycle for the crash-only server.  See
   supervisor.mli. *)

module J = Arde.Json
module P = Protocol

type knobs = {
  k_exec : string;
  k_spool_root : string;
  k_jobs : int;
  k_max_frame : int;
  k_chaos_plan : string;
  k_store_dir : string; (* bundle-store directory; "" = store disabled *)
  k_store_max_mb : int;
  k_restart_backoff_ms : int;
  k_restart_backoff_max_ms : int;
  k_breaker_threshold : int;
  k_breaker_window_s : float;
  k_log : string -> unit;
}

type wstate = Starting | Live | Down | Broken

let state_name = function
  | Starting -> "starting"
  | Live -> "live"
  | Down -> "down"
  | Broken -> "broken"

type wproc = {
  w_index : int;
  mutable w_pid : int; (* -1 when not running *)
  mutable w_fd : Unix.file_descr option;
  mutable w_dec : P.decoder;
  mutable w_out : Util.outbuf;
  mutable w_state : wstate;
  mutable w_restarts : int;
  mutable w_crashes : int;
  mutable w_served : int;
  mutable w_last_crash : string option;
  mutable w_recent : float list; (* crash timestamps inside the window *)
  mutable w_backoff_ms : int;
  mutable w_retry_at : float; (* Down: respawn time; Broken: half-open time *)
  mutable w_kill_by : float; (* watchdog deadline while a job is in flight *)
  mutable w_pending_reason : string option; (* set by deliberate kills *)
}

type death = {
  d_index : int;
  d_reason : string;
  d_crash : bool; (* false only for a clean exit during drain *)
  d_bundle : string option;
}

type t = {
  knobs : knobs;
  spool : Spool.t;
  workers : wproc array;
  store : Store.t option;
      (* the supervisor never loads or saves bundles — this handle only
         scans the directory for [stats_json]'s usage figures *)
  mutable store_stats : Store.stats;
      (* daemon-wide totals, aggregated from worker [done] frames *)
  mutable crashes : int;
  mutable restarts : int;
  mutable watchdog_kills : int;
  mutable bundles_sealed : int;
}

let worker t i = t.workers.(i)
let n_workers t = Array.length t.workers
let spool t = t.spool

(* ------------------------------------------------------------------ *)
(* Spawning                                                           *)

let spawn t w =
  let parent, child = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.set_nonblock parent;
  Unix.set_close_on_exec parent;
  let tail =
    Worker.worker_args ~spool:t.knobs.k_spool_root ~index:w.w_index
      ~jobs:t.knobs.k_jobs ~max_frame:t.knobs.k_max_frame
      ~chaos_plan:t.knobs.k_chaos_plan ~store:t.knobs.k_store_dir
      ~store_max_mb:t.knobs.k_store_max_mb
  in
  let argv = Array.append [| t.knobs.k_exec |] tail in
  (* The socketpair rides in as the worker's stdin and carries frames in
     BOTH directions: host binaries may link libraries that print to
     stdout during module initialisation (before {!Worker.hook} runs),
     so the worker's stdout cannot be trusted as a frame channel.  It is
     pointed at stderr instead, where stray prints are diagnostics, not
     protocol corruption. *)
  match Unix.create_process t.knobs.k_exec argv child Unix.stderr Unix.stderr with
  | exception e ->
      (try Unix.close parent with Unix.Unix_error _ -> ());
      (try Unix.close child with Unix.Unix_error _ -> ());
      raise e
  | pid ->
      (try Unix.close child with Unix.Unix_error _ -> ());
      w.w_pid <- pid;
      w.w_fd <- Some parent;
      w.w_dec <- P.decoder ();
      w.w_out <- Util.outbuf ();
      w.w_state <- Starting;
      w.w_kill_by <- infinity;
      w.w_pending_reason <- None;
      t.knobs.k_log
        (Printf.sprintf "worker %d spawned (pid %d)" w.w_index pid)

let create ~knobs ~spool ~workers =
  let store =
    if knobs.k_store_dir = "" then None
    else
      match
        Store.create ~max_mb:knobs.k_store_max_mb ~dir:knobs.k_store_dir ()
      with
      | Ok s -> Some s
      | Error e ->
          knobs.k_log (e ^ " (store stats disabled)");
          None
  in
  let t =
    {
      knobs;
      spool;
      store;
      store_stats = Store.zero_stats;
      workers =
        Array.init (max 1 workers) (fun i ->
            {
              w_index = i;
              w_pid = -1;
              w_fd = None;
              w_dec = P.decoder ();
              w_out = Util.outbuf ();
              w_state = Down;
              w_restarts = 0;
              w_crashes = 0;
              w_served = 0;
              w_last_crash = None;
              w_recent = [];
              w_backoff_ms = knobs.k_restart_backoff_ms;
              w_retry_at = 0.;
              w_kill_by = infinity;
              w_pending_reason = None;
            });
      crashes = 0;
      restarts = 0;
      watchdog_kills = 0;
      bundles_sealed = 0;
    }
  in
  Array.iter (fun w -> spawn t w) t.workers;
  t

(* ------------------------------------------------------------------ *)
(* Routing                                                            *)

let is_live t i = t.workers.(i).w_state = Live

let route t ~preferred =
  let n = n_workers t in
  let preferred = ((preferred mod n) + n) mod n in
  let scan pred =
    let rec go k =
      if k = n then None
      else
        let i = (preferred + k) mod n in
        if pred t.workers.(i) then Some i else go (k + 1)
    in
    go 0
  in
  (* Digest affinity first; a dead-but-restarting preferred slot keeps
     its queue (the restarted worker re-warms against the same
     digests), but if the preferred slot's circuit is open the request
     must not wait out the cooldown. *)
  match t.workers.(preferred).w_state with
  | Starting | Live | Down -> Some preferred
  | Broken -> scan (fun w -> w.w_state <> Broken)

let any_usable t = Array.exists (fun w -> w.w_state <> Broken) t.workers

(* ------------------------------------------------------------------ *)
(* Dispatch bookkeeping                                               *)

let note_hello t i =
  let w = t.workers.(i) in
  w.w_state <- Live;
  w.w_backoff_ms <- t.knobs.k_restart_backoff_ms;
  t.knobs.k_log (Printf.sprintf "worker %d ready (pid %d)" i w.w_pid)

let note_dispatch t i ~kill_by = (worker t i).w_kill_by <- kill_by

let note_done t i =
  let w = worker t i in
  w.w_served <- w.w_served + 1;
  w.w_kill_by <- infinity

(* Fold a worker-reported store-counter delta (a [done] frame's [store]
   field) into the daemon-wide totals. *)
let note_store t json =
  t.store_stats <- Store.stats_add t.store_stats (Store.stats_of_json json)

let send_to_worker t i payload =
  let w = worker t i in
  match w.w_fd with
  | None -> ()
  | Some fd -> (
      Util.outbuf_push w.w_out (P.frame payload);
      match Util.outbuf_flush w.w_out fd with
      | Util.Flushed | Util.Partial -> ()
      | Util.Peer_gone -> () (* the reaper will notice *))

(* ------------------------------------------------------------------ *)
(* Watchdog                                                           *)

let due_watchdog t ~now =
  Array.to_list t.workers
  |> List.filter_map (fun w ->
         if w.w_pid >= 0 && w.w_kill_by < now then Some w.w_index else None)

let kill_watchdog t i =
  let w = worker t i in
  if w.w_pid >= 0 then begin
    w.w_pending_reason <- Some "watchdog";
    (* Disarm: until [reap] collects the corpse this slot must not come
       due again, or every loop pass would re-kill and re-count it. *)
    w.w_kill_by <- infinity;
    t.watchdog_kills <- t.watchdog_kills + 1;
    t.knobs.k_log
      (Printf.sprintf "worker %d (pid %d) overran the watchdog: SIGKILL" i
         w.w_pid);
    try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Death and rebirth                                                  *)

let decoder_mid_frame (d : P.decoder) =
  match P.next_frame d with
  | P.Frame _ | P.Too_large _ -> true (* unconsumed data: also suspicious *)
  | P.Await -> P.decoder_pending d > 0

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" s

let status_reason = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> "killed by " ^ signal_name s
  | Unix.WSTOPPED s -> "stopped by " ^ signal_name s

(* Finalize one dead worker: close the pipe, seal any journaled
   request into a crash bundle, and schedule the restart (backoff,
   or circuit-breaker open on a restart storm). *)
let finalize_death t w status ~now ~draining =
  (match w.w_fd with
  | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  let torn = decoder_mid_frame w.w_dec in
  let pid = w.w_pid in
  w.w_fd <- None;
  w.w_pid <- -1;
  w.w_kill_by <- infinity;
  let clean = (not torn) && draining && status = Unix.WEXITED 0 in
  let reason =
    match w.w_pending_reason with
    | Some r -> r
    | None ->
        status_reason status ^ (if torn then " (torn reply frame)" else "")
  in
  w.w_pending_reason <- None;
  if clean then begin
    w.w_state <- Down;
    w.w_retry_at <- infinity;
    { d_index = w.w_index; d_reason = "drained"; d_crash = false;
      d_bundle = None }
  end
  else begin
    w.w_crashes <- w.w_crashes + 1;
    t.crashes <- t.crashes + 1;
    w.w_last_crash <- Some reason;
    let bundle =
      match Spool.seal t.spool ~worker:w.w_index ~reason with
      | Ok (Some path) ->
          t.bundles_sealed <- t.bundles_sealed + 1;
          t.knobs.k_log
            (Printf.sprintf "worker %d crash bundle sealed: %s" w.w_index path);
          Some path
      | Ok None -> None
      | Error e ->
          t.knobs.k_log
            (Printf.sprintf "worker %d: crash bundle not sealed: %s" w.w_index
               e);
          None
    in
    (* Restart policy: exponential backoff per consecutive crash, and a
       circuit breaker when crashes bunch up faster than the window. *)
    let window_floor = now -. t.knobs.k_breaker_window_s in
    w.w_recent <- now :: List.filter (fun ts -> ts > window_floor) w.w_recent;
    if draining then begin
      w.w_state <- Down;
      w.w_retry_at <- infinity
    end
    else if List.length w.w_recent >= t.knobs.k_breaker_threshold then begin
      w.w_state <- Broken;
      w.w_retry_at <- now +. t.knobs.k_breaker_window_s;
      t.knobs.k_log
        (Printf.sprintf
           "worker %d: restart storm (%d crashes in %.1fs): circuit open for \
            %.1fs"
           w.w_index (List.length w.w_recent) t.knobs.k_breaker_window_s
           t.knobs.k_breaker_window_s)
    end
    else begin
      w.w_state <- Down;
      w.w_retry_at <- now +. (float_of_int w.w_backoff_ms /. 1000.);
      w.w_backoff_ms <-
        min t.knobs.k_restart_backoff_max_ms (w.w_backoff_ms * 2)
    end;
    t.knobs.k_log
      (Printf.sprintf "worker %d (pid %d) died: %s" w.w_index pid reason);
    { d_index = w.w_index; d_reason = reason; d_crash = true;
      d_bundle = bundle }
  end

let reap t ~now ~draining =
  Array.to_list t.workers
  |> List.filter_map (fun w ->
         if w.w_pid < 0 then None
         else
           match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
           | 0, _ -> None
           | _, status -> Some (finalize_death t w status ~now ~draining)
           | exception Unix.Unix_error (ECHILD, _, _) ->
               Some (finalize_death t w (Unix.WEXITED 127) ~now ~draining)
           | exception Unix.Unix_error (EINTR, _, _) -> None)

let respawn_due t ~now ~draining =
  if not draining then
    Array.iter
      (fun w ->
        match w.w_state with
        | (Down | Broken) when w.w_pid < 0 && w.w_retry_at <= now ->
            (* A Broken slot re-closing its circuit gets one half-open
               probe; if it crashes again the window refills at once. *)
            w.w_restarts <- w.w_restarts + 1;
            t.restarts <- t.restarts + 1;
            spawn t w
        | _ -> ())
      t.workers

let next_timer t =
  Array.fold_left
    (fun acc w ->
      let acc =
        if w.w_pid >= 0 && w.w_kill_by < infinity then min acc w.w_kill_by
        else acc
      in
      if w.w_pid < 0 && w.w_retry_at < infinity then min acc w.w_retry_at
      else acc)
    infinity t.workers

(* ------------------------------------------------------------------ *)
(* Shutdown                                                           *)

let shutdown t ~grace =
  (* Closing a worker's stdin/stdout pipe is the drain signal; workers
     exit after finishing their current (already answered) job. *)
  Array.iter
    (fun w ->
      match w.w_fd with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          w.w_fd <- None
      | None -> ())
    t.workers;
  let deadline = Util.now () +. grace in
  let rec wait_all () =
    let pending =
      Array.to_list t.workers |> List.filter (fun w -> w.w_pid >= 0)
    in
    if pending <> [] then
      if Util.now () > deadline then
        List.iter
          (fun w ->
            (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Util.waitpid [] w.w_pid)
             with Unix.Unix_error _ -> ());
            w.w_pid <- -1)
          pending
      else begin
        List.iter
          (fun w ->
            match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
            | 0, _ -> ()
            | _, _ -> w.w_pid <- -1
            | exception Unix.Unix_error (ECHILD, _, _) -> w.w_pid <- -1
            | exception Unix.Unix_error (EINTR, _, _) -> ())
          pending;
        if Array.exists (fun w -> w.w_pid >= 0) t.workers then begin
          Util.sleepf 0.02;
          wait_all ()
        end
      end
  in
  wait_all ()

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)

let store_json t =
  match t.store with
  | None -> J.Obj [ ("enabled", J.Bool false) ]
  | Some s ->
      let entries, bytes = Store.usage s in
      let counters =
        match Store.stats_to_json t.store_stats with
        | J.Obj fields -> fields
        | _ -> []
      in
      J.Obj
        ([
           ("enabled", J.Bool true);
           ("dir", J.String (Store.dir s));
           ("entries", J.Int entries);
           ("bytes", J.Int bytes);
         ]
        @ counters)

let stats_json t =
  J.Obj
    [
      ("store", store_json t);
      ("crashes", J.Int t.crashes);
      ("restarts", J.Int t.restarts);
      ("watchdog_kills", J.Int t.watchdog_kills);
      ("bundles_sealed", J.Int t.bundles_sealed);
      ( "workers",
        J.List
          (Array.to_list t.workers
          |> List.map (fun w ->
                 J.Obj
                   ([
                      ("index", J.Int w.w_index);
                      ("state", J.String (state_name w.w_state));
                      ("pid", J.Int w.w_pid);
                      ("served", J.Int w.w_served);
                      ("crashes", J.Int w.w_crashes);
                      ("restarts", J.Int w.w_restarts);
                    ]
                   @
                   match w.w_last_crash with
                   | None -> []
                   | Some r -> [ ("last_crash", J.String r) ]))) );
    ]
