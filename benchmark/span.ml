(* The span recorder behind the traced run.

   A span is a name, a start and an end on the monotonic clock, the span
   that caused it (its parent) and the id of the request it belongs to.
   Spans stay in memory while the benchmark runs and are written out
   once at the end.  With recording off, [with_] is a direct call, so
   the untraced run pays nothing for it.

   Spans are recorded around calls into ARDE's public functions from the
   benchmark's own files; spans inside the program are out of scope. *)

type t = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 for a root span *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let enabled = ref false
let lock = Mutex.create ()
let store : t option array ref = ref (Array.make 4096 None)
let count = ref 0

let enter ?(parent = -1) ~req name =
  let start_ns = Bstat.now_ns () in
  Mutex.lock lock;
  let id = !count in
  if id >= Array.length !store then begin
    let bigger = Array.make (2 * id) None in
    Array.blit !store 0 bigger 0 id;
    store := bigger
  end;
  !store.(id) <- Some { id; name; req; parent; start_ns; stop_ns = start_ns };
  incr count;
  Mutex.unlock lock;
  id

let exit id =
  let stop = Bstat.now_ns () in
  Mutex.lock lock;
  (match !store.(id) with Some s -> s.stop_ns <- stop | None -> ());
  Mutex.unlock lock

(* Run [f] inside a span; [f] receives the span id, to pass as the
   [parent] of nested spans.  The span closes even if [f] raises. *)
let with_ ?parent ~req name f =
  if not !enabled then f (-1)
  else
    let id = enter ?parent ~req name in
    Fun.protect ~finally:(fun () -> exit id) (fun () -> f id)

let all () =
  Mutex.lock lock;
  let l = List.init !count (fun i -> Option.get !store.(i)) in
  Mutex.unlock lock;
  l

let duration_ms s = Bstat.ms_between s.start_ns s.stop_ns

(* Self time of every span: its duration minus the part of that interval
   its children cover (children of one span never overlap — each runs
   inside its parent's call, one after another).  Keyed by span id. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (prev +. duration_ms s))
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
      Hashtbl.replace self s.id (Float.max 0. (duration_ms s -. c)))
    spans;
  self

(* Self times (ms) of every span with this name. *)
let self_of ~self spans name =
  List.filter_map
    (fun s -> if s.name = name then Hashtbl.find_opt self s.id else None)
    spans

let to_json s =
  Arde.Json.Obj
    [
      ("id", Arde.Json.Int s.id);
      ("name", Arde.Json.String s.name);
      ("req", Arde.Json.Int s.req);
      ("parent", Arde.Json.Int s.parent);
      ("start_ns", Arde.Json.String (Int64.to_string s.start_ns));
      ("end_ns", Arde.Json.String (Int64.to_string s.stop_ns));
    ]

(* One JSON object per line. *)
let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Arde.Json.to_string (to_json s));
      output_char oc '\n')
    spans;
  close_out oc
