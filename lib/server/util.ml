(* EINTR-safe syscall wrappers and non-blocking output buffering shared
   by the supervisor, the worker shim and the client.  See util.mli. *)

let rec retry_eintr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (EINTR, _, _) -> retry_eintr f

let read fd buf off len = retry_eintr (fun () -> Unix.read fd buf off len)

let write_substring fd s off len =
  retry_eintr (fun () -> Unix.write_substring fd s off len)

let accept ?cloexec fd = retry_eintr (fun () -> Unix.accept ?cloexec fd)
let connect fd addr = retry_eintr (fun () -> Unix.connect fd addr)

let waitpid flags pid = retry_eintr (fun () -> Unix.waitpid flags pid)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + write_substring fd s !off (len - !off)
  done

(* Numeric addresses resolve without NSS; "localhost" and "" short-cut
   to loopback so a daemon or client in a minimal container needs no
   resolver. *)
let resolve_host host =
  if host = "" || host = "localhost" then Unix.inet_addr_loopback
  else
    match Unix.inet_addr_of_string host with
    | addr -> addr
    | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> raise Not_found
        | h -> h.Unix.h_addr_list.(0))

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sleepf dt =
  (* [Unix.sleepf] can be cut short by a signal; finish the nap. *)
  let until = now () +. dt in
  let rec nap () =
    let left = until -. now () in
    if left > 0. then begin
      (try Unix.sleepf left with Unix.Unix_error (EINTR, _, _) -> ());
      nap ()
    end
  in
  nap ()

(* ------------------------------------------------------------------ *)
(* Non-blocking output buffering                                      *)

(* The supervisor is one thread for every connection and every worker
   pipe, so it must never block in [write].  Frames are appended to an
   [outbuf] and flushed opportunistically; a destination that cannot
   keep up accumulates buffer, and the owner decides when that is fatal
   (see [size]). *)

type outbuf = {
  q : string Queue.t;
  mutable head_off : int; (* bytes of [Queue.peek q] already written *)
  mutable buffered : int; (* total unwritten bytes *)
}

let outbuf () = { q = Queue.create (); head_off = 0; buffered = 0 }
let outbuf_size b = b.buffered
let outbuf_is_empty b = b.buffered = 0

let outbuf_push b s =
  if String.length s > 0 then begin
    Queue.add s b.q;
    b.buffered <- b.buffered + String.length s
  end

type flush_result = Flushed | Partial | Peer_gone

let outbuf_flush b fd =
  let rec go () =
    match Queue.peek_opt b.q with
    | None -> Flushed
    | Some s -> (
        let len = String.length s - b.head_off in
        match write_substring fd s b.head_off len with
        | n ->
            b.buffered <- b.buffered - n;
            if n = len then begin
              ignore (Queue.pop b.q);
              b.head_off <- 0;
              go ()
            end
            else begin
              b.head_off <- b.head_off + n;
              Partial
            end
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Partial
        | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
            Peer_gone)
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Durable file writes                                                *)

let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  match
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600
        tmp
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error e
  | exception Unix.Unix_error (err, fn, _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception (Sys_error e : exn) -> Error e
          | exception End_of_file -> Error (path ^ ": truncated"))
