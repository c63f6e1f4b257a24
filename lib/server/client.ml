(* Blocking serve-socket client.  See client.mli. *)

module J = Arde.Json
module P = Protocol

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) ->
      Printf.sprintf "%s:%d" (if host = "" then "localhost" else host) port

(* "HOST:PORT" with an optional host — ":4817" and "4817" both mean
   loopback.  Mirrors the CLI's [--tcp] syntax on the serve side. *)
let parse_tcp_endpoint s =
  let host, port_s =
    match String.rindex_opt s ':' with
    | None -> ("", s)
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match int_of_string_opt port_s with
  | Some port when port > 0 && port < 65536 -> Ok (Tcp (host, port))
  | Some _ | None ->
      Error (Printf.sprintf "invalid TCP endpoint %S (want HOST:PORT)" s)

type t = {
  cl_fd : Unix.file_descr;
  cl_dec : P.decoder;
  cl_buf : Bytes.t; (* per-connection: clients may live on different domains *)
  mutable cl_open : bool;
}

let close t =
  if t.cl_open then begin
    t.cl_open <- false;
    try Unix.close t.cl_fd with Unix.Unix_error _ -> ()
  end

let fd t = t.cl_fd

let send_raw t bytes =
  if not t.cl_open then Error "connection closed"
  else
    let len = String.length bytes in
    let off = ref 0 in
    match
      while !off < len do
        off := !off + Util.write_substring t.cl_fd bytes !off (len - !off)
      done
    with
    | () -> Ok ()
    | exception Unix.Unix_error (err, _, _) ->
        Error ("write: " ^ Unix.error_message err)

let send_frame t payload = send_raw t (P.frame payload)

let recv t =
  if not t.cl_open then Error "connection closed"
  else
    let rec loop () =
      match P.next_frame t.cl_dec with
      | P.Frame payload ->
          Result.map_error (fun e -> "response: " ^ e) (J.parse payload)
      | P.Too_large n ->
          Error (Printf.sprintf "response frame too large (%d bytes)" n)
      | P.Await -> (
          match Util.read t.cl_fd t.cl_buf 0 (Bytes.length t.cl_buf) with
          | 0 -> Error "connection closed by server"
          | n ->
              P.feed t.cl_dec t.cl_buf 0 n;
              loop ()
          | exception Unix.Unix_error (err, _, _) ->
              Error ("read: " ^ Unix.error_message err))
    in
    loop ()

let request_payload t payload =
  match send_frame t payload with Error _ as e -> e | Ok () -> recv t
let request t json = request_payload t (J.to_string json)

let connect ?(max_frame = P.default_max_frame) ~endpoint () =
  match
    match endpoint with
    | Unix_socket path ->
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        let addr = Util.resolve_host host in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (* Request/response over small frames: Nagle would stall every
           request a full RTT behind the previous ack. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        (fd, Unix.ADDR_INET (addr, port))
  with
  | exception Not_found ->
      Error
        (Printf.sprintf "cannot resolve host in %s"
           (endpoint_to_string endpoint))
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (endpoint_to_string endpoint) (Unix.error_message err))
  | fd, addr -> (
  match Util.connect fd addr with
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (endpoint_to_string endpoint) (Unix.error_message err))
  | () ->
      Ok
        {
          cl_fd = fd;
          cl_dec = P.decoder ~max_frame ();
          cl_buf = Bytes.create 65536;
          cl_open = true;
        })

let run t ?id ?deadline_ms ?retry ?record ~program ~mode ~options () =
  request t
    (P.run_request_json ?id ?deadline_ms ?retry ?record ~program ~mode ~options
       ())

let replay t ?id ?deadline_ms ?retry ~trace () =
  request t (P.replay_request_json ?id ?deadline_ms ?retry ~trace ())

let stats t = request t (P.stats_request ())
let ping t = request t (P.ping_request ())

(* ------------------------------------------------------------------ *)
(* Retry policy                                                       *)

type retry_policy = {
  rp_attempts : int;
  rp_backoff_ms : int;
  rp_max_backoff_ms : int;
  rp_jitter_seed : int;
  rp_sleep : float -> unit;
}

let no_retry =
  {
    rp_attempts = 0;
    rp_backoff_ms = 50;
    rp_max_backoff_ms = 2_000;
    rp_jitter_seed = 0;
    rp_sleep = Util.sleepf;
  }

let retry_policy ?(attempts = 0) ?(backoff_ms = 50) ?(max_backoff_ms = 2_000)
    ?(jitter_seed = 0) ?(sleep = Util.sleepf) () =
  {
    rp_attempts = max 0 attempts;
    rp_backoff_ms = max 1 backoff_ms;
    rp_max_backoff_ms = max 1 max_backoff_ms;
    rp_jitter_seed = jitter_seed;
    rp_sleep = sleep;
  }

let backoff_delay_s policy prng ~attempt =
  let base =
    min policy.rp_max_backoff_ms
      (policy.rp_backoff_ms * (1 lsl min attempt 20))
  in
  (* Uniform in [0.5, 1.5) of the base: staggers a retry herd without
     ever waiting more than 1.5x the nominal schedule. *)
  let factor = 0.5 +. Arde.Prng.float prng 1.0 in
  float_of_int base *. factor /. 1000.

(* What happened to one attempt, as seen by the retry loop. *)
type attempt_outcome =
  | Final of (J.t, string) result
  | Retryable of (J.t, string) result

(* [build ~retry] builds the request for one attempt — the retry loop
   is payload-agnostic, shared by program and trace submits. *)
let attempt_once ~endpoint ~max_frame ~build ~attempt =
  match connect ?max_frame ~endpoint () with
  | Error e ->
      (* The daemon was not reachable (refused, missing socket): nothing
         ran, unconditionally safe to retry. *)
      Retryable (Error e)
  | Ok c ->
      let outcome =
        match request c (build ~retry:attempt) with
        | Error _ as e ->
            (* A transport failure after the request was sent is not
               provably pre-execution, and run requests are answered in
               order, so the conservative policy is to surface it. *)
            Final e
        | Ok response -> (
            match P.response_error response with
            | Some (code, _) when P.retryable_code code ->
                Retryable (Ok response)
            | _ -> Final (Ok response))
      in
      close c;
      outcome

let with_retry ~endpoint ~max_frame ~policy build =
  let prng = Arde.Prng.create policy.rp_jitter_seed in
  let rec go attempt =
    match attempt_once ~endpoint ~max_frame ~build ~attempt with
    | Final r -> (r, attempt)
    | Retryable r ->
        if attempt >= policy.rp_attempts then (r, attempt)
        else begin
          policy.rp_sleep (backoff_delay_s policy prng ~attempt);
          go (attempt + 1)
        end
  in
  go 0

let submit_with_retry ~endpoint ~policy ?max_frame ?id ?deadline_ms ?record
    ~program ~mode ~options () =
  with_retry ~endpoint ~max_frame ~policy (fun ~retry ->
      P.run_request_json ?id ?deadline_ms ~retry ?record ~program ~mode
        ~options ())

let submit_trace_with_retry ~endpoint ~policy ?max_frame ?id ?deadline_ms
    ~trace () =
  with_retry ~endpoint ~max_frame ~policy (fun ~retry ->
      P.replay_request_json ?id ?deadline_ms ~retry ~trace ())
