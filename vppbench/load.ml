(* The serve workload: a [Cosynth.Service.serve] daemon in its own process
   and an open-loop client that drives it from this one.

   The client sends on a fixed schedule, whatever the daemon does, and
   times every request from when it was due — so a stall shows up in the
   latency of every request queued behind it. It uses at most [nproc]
   connections and pipelines up to [depth] requests on each; a request
   that is due while every connection is full waits in the client, with
   its clock running. *)

module J = Netcore.Json

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

(* Entry point of the daemon process ([vppbench --daemon SOCKET]). *)
let daemon_main socket_path =
  let _summary : Cosynth.Service.summary =
    Cosynth.Service.serve
      ~on_ready:(fun ~domains:_ ->
        print_endline "ready";
        flush stdout)
      ~socket_path Cosynth.Service.default_config
  in
  exit 0

type daemon = { pid : int; socket_path : string; conns : Unix.file_descr list }

(* Start the daemon, wait until it listens, and open [n] connections. *)
let start ~socket_path ~n =
  (try Sys.remove socket_path with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; socket_path |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  if line <> "ready" then begin
    ignore (Unix.waitpid [] pid);
    failwith "serve daemon did not start"
  end;
  let conns =
    List.init n (fun _ ->
        let fd = Exec.Serve.connect ~total_budget_ms:5_000 ~socket_path () in
        (* A daemon that stops answering fails the run instead of hanging it. *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
        fd)
  in
  { pid; socket_path; conns }

(* Peak resident memory of a process, in MB ([VmHWM]). *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let control d job = Exec.Serve.request (List.hd d.conns) (J.Obj [ ("job", J.String job) ])

let stop d =
  (try ignore (control d "shutdown") with _ -> ());
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) d.conns;
  ignore (Unix.waitpid [] d.pid);
  try Sys.remove d.socket_path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The job mix                                                         *)
(* ------------------------------------------------------------------ *)

type kind = Translate | Synth | Repair

let kind_name = function Translate -> "translate" | Synth -> "synth" | Repair -> "repair"

let kinds = [ Translate; Synth; Repair ]

(* The [i]-th request of a mix. No recorded traffic says how users mix
   the kinds, so they take equal turns and each is reported on its own.
   Each kind cycles through a pool of [pool] seeds picked by the benchmark
   seed; that repeated jobs come back after [pool] requests of their kind
   is an assumption, not a measurement. *)
let job ~seed ~pool i =
  let k = List.length kinds in
  (List.nth kinds (i mod k), (seed * 10_000) + (i / k mod pool))

let request_json (kind, s) ~client =
  J.Obj
    ([ ("job", J.String (kind_name kind)); ("seed", J.Int s); ("client", J.String client) ]
    @ match kind with Synth -> [ ("routers", J.Int 7) ] | Translate | Repair -> [])

(* The reply fields a correct daemon must return for a job, computed by
   running the same job in this process. *)
let expected (kind, seed) =
  let t (tr : Cosynth.Driver.transcript) =
    [
      ("auto", J.Int tr.Cosynth.Driver.auto_prompts);
      ("human", J.Int tr.Cosynth.Driver.human_prompts);
      ("rounds", J.Int tr.Cosynth.Driver.rounds);
      ("converged", J.Bool tr.Cosynth.Driver.converged);
    ]
  in
  match kind with
  | Translate ->
      let r = Cosynth.Driver.run_translation ~seed ~cisco_text:Cisco.Samples.border_router () in
      t r.Cosynth.Driver.transcript @ [ ("verified", J.Bool r.Cosynth.Driver.verified) ]
  | Synth ->
      let r = Cosynth.Driver.run_no_transit ~seed ~routers:7 () in
      t r.Cosynth.Driver.transcript @ [ ("global_ok", J.Bool r.Cosynth.Driver.global_ok) ]
  | Repair ->
      let r = Cosynth.Driver.run_incremental ~seed ~routers:5 () in
      t r.Cosynth.Driver.inc_transcript
      @ [
          ("specs_hold", J.Bool r.Cosynth.Driver.specs_hold);
          ("global_ok", J.Bool r.Cosynth.Driver.global_ok);
          ("interference_caught", J.Bool r.Cosynth.Driver.interference_caught);
        ]

(* ------------------------------------------------------------------ *)
(* The open-loop client                                                *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Ok_reply of J.t
  | Shed
  | Timed_out
  | Errored of string
  | Unsent  (** Still waiting for a free connection when the phase ended. *)

type sample = {
  job : kind * int;
  due : float;
  late_ms : float;  (** How late the generator woke for this request. *)
  mutable done_at : float;
  mutable outcome : outcome;
}

type conn = {
  fd : Unix.file_descr;
  m : Mutex.t;
  c : Condition.t;
  pending : sample Queue.t;
  mutable closing : bool;
}

let classify reply =
  match J.member "ok" reply with
  | Some (J.Bool true) -> Ok_reply reply
  | _ -> (
      match (J.member "shed" reply, J.member "timeout" reply) with
      | Some (J.Bool true), _ -> Shed
      | _, Some (J.Bool true) -> Timed_out
      | _ -> Errored (J.to_string reply))

(* One reader per connection: replies come back in request order. *)
let reader conn =
  let rec next () =
    Mutex.lock conn.m;
    while Queue.is_empty conn.pending && not conn.closing do
      Condition.wait conn.c conn.m
    done;
    let s = Queue.peek_opt conn.pending in
    Mutex.unlock conn.m;
    match s with
    | None -> ()
    | Some s ->
        let outcome =
          match Exec.Serve.read_frame conn.fd with
          | Some reply -> classify reply
          | None -> Errored "connection closed"
          | exception e -> Errored (Printexc.to_string e)
        in
        s.done_at <- Unix.gettimeofday ();
        s.outcome <- outcome;
        Mutex.lock conn.m;
        ignore (Queue.pop conn.pending);
        Condition.broadcast conn.c;
        Mutex.unlock conn.m;
        next ()
  in
  next ()

let depth = 4

(* Send requests [first .. first + n - 1] at [rate] per second. A request
   still waiting for a free connection at [until] is not sent. Returns
   every request's record once every reply is in. *)
let run_phase d ~seed ~pool ~first ~n ~rate ~until =
  let conns =
    List.map
      (fun fd ->
        {
          fd;
          m = Mutex.create ();
          c = Condition.create ();
          pending = Queue.create ();
          closing = false;
        })
      d.conns
  in
  let readers = List.map (fun c -> Thread.create reader c) conns in
  let arr = Array.of_list conns in
  let start = Unix.gettimeofday () +. 0.01 in
  let samples =
    List.init n (fun k ->
        let due = start +. (float_of_int k /. rate) in
        let wait = due -. Unix.gettimeofday () in
        if wait > 0. then Thread.delay wait;
        let late_ms = (Unix.gettimeofday () -. due) *. 1000. in
        let i = first + k in
        let job = job ~seed ~pool i in
        (* Round-robin over connections with room; wait when all are full. *)
        let rec pick tries =
          let c = arr.((i + tries) mod Array.length arr) in
          Mutex.lock c.m;
          if Queue.length c.pending < depth then Some c
          else begin
            Mutex.unlock c.m;
            if tries + 1 < Array.length arr then pick (tries + 1)
            else if Unix.gettimeofday () >= until then None
            else begin
              Thread.delay 0.0005;
              pick 0
            end
          end
        in
        let s =
          { job; due; late_ms; done_at = nan; outcome = Unsent }
        in
        (match pick 0 with
        | None -> ()
        | Some c ->
            s.outcome <- Errored "no reply";
            Queue.push s c.pending;
            Condition.broadcast c.c;
            (try
               Exec.Serve.write_frame c.fd
                 (request_json job ~client:(Printf.sprintf "user-%d" (i mod 16)))
             with e -> s.outcome <- Errored (Printexc.to_string e));
            Mutex.unlock c.m);
        s)
  in
  List.iter
    (fun c ->
      Mutex.lock c.m;
      c.closing <- true;
      Condition.broadcast c.c;
      Mutex.unlock c.m)
    conns;
  List.iter Thread.join readers;
  samples
