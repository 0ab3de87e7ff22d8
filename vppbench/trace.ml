(* In-memory span recorder for the traced pass.

   Spans are recorded from the benchmark's own code, around the public
   calls into each layer; nothing inside the program is instrumented. A
   span knows its parent and the VPP run it belongs to, so the per-layer
   self time (busy time minus child spans) can be computed afterwards and
   the whole pass written out as Chrome trace-event JSON.

   The recorder is domain-safe: the open-span stack is domain-local and
   finished spans go to one mutex-guarded list, so pool jobs on worker
   domains record into the same trace. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** 0 for a root span. *)
  run : int;  (** The VPP run (its seed), or -1 outside any run. *)
  tid : int;  (** The domain that ran the span. *)
  t0 : float;
  t1 : float;
  shadow : bool;
      (** Off the blocking path: a duplicate call made only to split a
          layer's time, excluded from run time and tracing overhead. *)
}

type frame = { f_id : int; f_run : int; f_shadow : bool }

let next_id = Atomic.make 1
let lock = Mutex.create ()
let finished : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 16
let stack : frame list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      finished := [];
      Hashtbl.reset counters)

let spans () = locked (fun () -> List.rev !finished)

(* The caller's position in the trace, to hand to a job that runs on
   another domain. *)
type ctx = frame list

let ctx () = Domain.DLS.get stack

let adopt (c : ctx) f =
  let saved = Domain.DLS.get stack in
  Domain.DLS.set stack c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set stack saved) f

(* With tracing off a span is a plain call and shadow calls are skipped:
   the baseline that tracing overhead is measured against. *)
let enabled = ref true

let record_span ?run ~shadow name f =
  let outer = Domain.DLS.get stack in
  let parent, p_run, p_shadow =
    match outer with
    | [] -> (0, -1, false)
    | fr :: _ -> (fr.f_id, fr.f_run, fr.f_shadow)
  in
  let id = Atomic.fetch_and_add next_id 1 in
  let run = Option.value ~default:p_run run in
  let shadow = shadow || p_shadow in
  Domain.DLS.set stack ({ f_id = id; f_run = run; f_shadow = shadow } :: outer);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set stack outer;
      let s = { name; id; parent; run; tid = (Domain.self () :> int); t0; t1; shadow } in
      locked (fun () -> finished := s :: !finished))
    f

let open_span ?run ?(shadow = false) name f =
  if !enabled then record_span ?run ~shadow name f else f ()

let span name f = open_span name f

(* Shadow calls can also be switched off alone: their extra work, and the
   garbage it leaves to collect, would otherwise blur tracing overhead. *)
let shadows = ref true

let shadow name (f : unit -> unit) =
  if !enabled && !shadows then open_span ~shadow:true name f

(* The root span of one VPP run; [id] becomes the run id of every span
   opened inside it. *)
let run ~id f = open_span ~run:id "run" f

let count name v =
  if !enabled then
    locked (fun () ->
        let prev = Option.value ~default:0. (Hashtbl.find_opt counters name) in
        Hashtbl.replace counters name (prev +. v))

let counter name = locked (fun () -> Option.value ~default:0. (Hashtbl.find_opt counters name))

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)
(* ------------------------------------------------------------------ *)

type layer = { calls : int; self_ms : float }

let dur s = s.t1 -. s.t0

(* Self time: a span's duration minus the part its children cover. Only
   children on the same domain are subtracted — they nest strictly inside
   the parent; a pool job on another domain overlaps its parent instead. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child (s.parent, s.tid)
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child (s.parent, s.tid))))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child (s.id, s.tid))))
    spans

(* Per-layer totals: calls and self milliseconds per span name. *)
let layers spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let l = Option.value ~default:{ calls = 0; self_ms = 0. } (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name { calls = l.calls + 1; self_ms = l.self_ms +. (self *. 1000.) })
    (self_times spans);
  tbl

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                              *)
(* ------------------------------------------------------------------ *)

let write_chrome path spans =
  let t_base = List.fold_left (fun acc s -> Float.min acc s.t0) Float.infinity spans in
  let us t = Printf.sprintf "%.1f" ((t -. t_base) *. 1e6) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%S,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%.1f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"run\":%d}}"
            s.name
            (if s.shadow then "shadow" else "vpp")
            (us s.t0) (dur s *. 1e6) s.tid s.id s.parent s.run)
        spans;
      output_string oc "]}\n")

(* Busy time covered by spans on the blocking path, in milliseconds. *)
let busy_ms spans =
  List.fold_left
    (fun acc (s, self) -> if s.shadow then acc else acc +. (self *. 1000.))
    0. (self_times spans)
