(* The VPP benchmark: two timed workloads over the public entry points,
   their output checks, and a traced pass that splits four workloads'
   loops by layer.

     vppbench --workload W --seed N --seconds S --trace 0|1 [--t0 T]
              [--setup-only] [--out-dir DIR]
     vppbench --self-test

   Untraced runs ([--trace 0]) print the end-to-end metrics of workload W
   (translate or no_transit_60); traced runs print the per-layer metrics of
   translate, no_transit_60, sweep_star7 and serve_open, whatever W is. The last
   line of stdout is one JSON object; everything before it is a report
   for people. See README.md beside this file for why each workload and
   metric exists. *)

module J = Netcore.Json
module D = Cosynth.Driver

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile of an ascending list. *)
let pct p xs =
  match xs with
  | [] -> nan
  | _ ->
      let n = List.length xs in
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      List.nth xs (max 0 (min (n - 1) (k - 1)))

let median xs = pct 50. (sorted xs)

(* The highest standard percentile with at least ten samples beyond it;
   none below p90, which would not be a tail. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  List.find_opt (fun p -> n *. (1. -. (p /. 100.)) >= 10.) [ 99.9; 99.; 98.; 95.; 90. ]
  |> Option.map (fun p -> (p, pct p (sorted xs)))

let tail_str xs =
  match tail xs with
  | Some (p, v) -> Printf.sprintf "p%g=%.2f ms" p v
  | None -> Printf.sprintf "none (%d samples)" (List.length xs)

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let print_result r =
  let metric (name, v, unit) =
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
      unit
  in
  say "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" r.correct r.attempted
    r.failed
    (String.concat "," (List.map metric r.metrics))

(* The end-to-end metrics every workload reports. An operation is one VPP
   run. *)
let end_to_end ~setup_s ~op_ms ~ops_per_s ~leverage ~human ~rss =
  [
    ("setup_s", setup_s, "s");
    ("op_ms_p50", op_ms, "ms");
    ("ops_per_s", ops_per_s, "1/s");
    ("leverage", leverage, "ratio");
    ("human_prompts_per_run", human, "count");
    ("peak_rss_mb", rss, "MB");
  ]

(* Prompt accounting over a fixed block of seeds, so these counts repeat
   exactly for a given benchmark seed however fast the runs are. *)
let prompt_metrics (ts : D.transcript list) =
  let auto = sum (List.map (fun (t : D.transcript) -> float_of_int t.D.auto_prompts) ts) in
  let human = sum (List.map (fun (t : D.transcript) -> float_of_int t.D.human_prompts) ts) in
  (ratio auto human, ratio human (float_of_int (List.length ts)))

let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> []

(* Run [op i] for i = 0, 1, ... until [seconds] have passed and at least
   [block] operations are done. Only [op] is timed; [after] checks and
   condenses its result off the clock. An operation that raises is kept
   as [Error]: it failed, and the run goes on. Also returns the peak RSS
   once the block is done: later operations only exist when the runs are
   fast, and the parse memo grows with every one of them. *)
let timed_ops ~seconds ~block ~op ~after =
  let t_start = now () in
  let rss = ref nan in
  let rec go i acc =
    if i >= block && now () -. t_start >= seconds then List.rev acc
    else begin
      let t0 = now () in
      let r = match op i with r -> Ok r | exception e -> Error (Printexc.to_string e) in
      let dt = now () -. t0 in
      let v = Result.map after r in
      if i = block - 1 then rss := Load.peak_rss_mb 0;
      go (i + 1) ((dt, v) :: acc)
    end
  in
  let ops = go 0 [] in
  (ops, !rss)

(* The block's condensed results, and the timed operations that returned. *)
let split ~block ops =
  ( List.filter_map (fun (_, v) -> Result.to_option v) (take block ops),
    List.filter_map (fun (dt, v) -> Result.to_option (Result.map (fun v -> (dt, v)) v)) ops )

let raised ops = List.filter_map (fun (_, v) -> match v with Error e -> Some e | Ok _ -> None) ops

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let cisco_text = Cisco.Samples.border_router

(* A verified translation must re-parse clean and be Campion-equivalent
   to the original. *)
let check_translation ~cisco_ir (r : D.translation_result) =
  (not r.D.verified)
  ||
  let ir, diags = Batfish.Parse_check.check Batfish.Parse_check.Junos r.D.final_text in
  Batfish.Parse_check.errors_only diags = []
  && Campion.Differ.equivalent ~original:cisco_ir ~translation:ir

(* On a verified no-transit run the BGP simulation and the Lightyear
   proof must both find no transit. *)
let check_no_transit ~routers (r : D.synthesis_result) =
  (not r.D.transcript.D.converged)
  ||
  let star = Netcore.Star.make ~routers in
  Cosynth.Modularizer.transit_violations star r.D.configs = []
  && Cosynth.Lightyear.prove_no_transit star r.D.configs = Cosynth.Lightyear.Proved

(* ------------------------------------------------------------------ *)
(* Workloads (untraced)                                                *)
(* ------------------------------------------------------------------ *)

type env = {
  seed : int;
  seconds : float;
  t0 : float;  (** When the benchmark process was started. *)
  setup_only : bool;
  out_dir : string;
}

(* Seeds of workload runs: a block per benchmark seed. *)
let base env = env.seed * 100_000

let setup_done env = now () -. env.t0

let setup_only_result setup_s =
  { correct = true; attempted = 1; failed = 0; metrics = [ ("setup_s", setup_s, "s") ] }

(* Report and result of a batch workload: [ops] are (seconds, check
   passed) per operation, [block] the transcripts of the fixed seed block
   [first..] and [unverified] how many of its runs did not verify. *)
let batch_result ~name ~setup_s ~rss ~ops ~raised ~block ~first ~unverified =
  let n = List.length ops in
  let ms = List.map (fun (dt, _) -> dt *. 1000.) ops in
  let bad = List.length (List.filter (fun (_, ok) -> not ok) ops) + List.length raised in
  let runs_per_s = float_of_int n /. sum (List.map fst ops) in
  let leverage, human = prompt_metrics block in
  let k = List.length block in
  say "%s: %d runs, %d failed an output check or raised" name n bad;
  List.iter (say "  FAILED: %s run raised %s" name) raised;
  say "  run_ms_p50=%.3f ms run_ms_tail: %s runs_per_s=%.3f" (median ms) (tail_str ms) runs_per_s;
  say "  over seeds %d..%d: leverage=%.4f human_prompts_per_run=%.4f failed_share=%.4f" first
    (first + k - 1) leverage human
    (float_of_int unverified /. float_of_int k);
  {
    correct = bad = 0;
    attempted = n + List.length raised;
    failed = bad;
    metrics = end_to_end ~setup_s ~op_ms:(median ms) ~ops_per_s:runs_per_s ~leverage ~human ~rss;
  }

(* Seed blocks. Leverage and human prompts per run are taken over the
   first [block] runs of a workload, and a run lasts at least until its
   block is done. No-transit runs vary most from seed to seed (1 to 4
   human prompts, 0.6 to 1.7 s each at 60 routers), so their block is the
   largest: at 15 runs the spread of those metrics over benchmark seeds
   was 14-20%. *)
let translate_block = 200

let translate env =
  let cisco_ir, _ = Cisco.Parser.parse cisco_text in
  let setup_s = setup_done env in
  if env.setup_only then setup_only_result setup_s
  else
    let ops, rss =
      timed_ops ~seconds:env.seconds ~block:translate_block
        ~op:(fun i -> D.run_translation ~seed:(base env + i) ~cisco_text ())
        ~after:(fun r -> (r.D.transcript, r.D.verified, check_translation ~cisco_ir r))
    in
    let block, timed = split ~block:translate_block ops in
    batch_result ~name:"translate" ~setup_s ~rss
      ~ops:(List.map (fun (dt, (_, _, ok)) -> (dt, ok)) timed)
      ~raised:(raised ops)
      ~block:(List.map (fun (t, _, _) -> t) block)
      ~first:(base env)
      ~unverified:(List.length (List.filter (fun (_, v, _) -> not v) block))

let no_transit_block = 30

let converged (t : D.transcript) = t.D.converged

let no_transit_60 env =
  let setup_s = setup_done env in
  if env.setup_only then setup_only_result setup_s
  else
    let ops, rss =
      timed_ops ~seconds:env.seconds ~block:no_transit_block
        ~op:(fun i -> D.run_no_transit ~seed:(base env + i) ~routers:60 ())
        ~after:(fun r -> (r.D.transcript, check_no_transit ~routers:60 r))
    in
    let block, timed = split ~block:no_transit_block ops in
    let block = List.map fst block in
    batch_result ~name:"no_transit_60" ~setup_s ~rss
      ~ops:(List.map (fun (dt, (_, ok)) -> (dt, ok)) timed)
      ~raised:(raised ops) ~block ~first:(base env)
      ~unverified:(List.length (List.filter (fun t -> not (converged t)) block))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_dir env name =
  let dir = Filename.concat env.out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

(* ------------------------------------------------------------------ *)
(* serve_open                                                          *)
(* ------------------------------------------------------------------ *)

(* Fixed offered rates, in requests per second. On a 2-core x86 container
   the daemon answers this mix at 70-80 requests per second: nominal
   sits well below that, overload well above it. *)
let nominal_rate = 40.
let overload_rate = 400.

(* Generator lateness beyond which a run is invalid: its schedule, not
   the daemon, would be setting the latencies. *)
let max_late_ms = 50.

type serve_stats = {
  by_kind : (Load.kind * float list) list;  (** Nominal latencies from due time, ms. *)
  goodput : float;  (** Correct overload replies per second. *)
  nominal_failed : int;
  wrong : int;
  late_p99 : float;
  stats_frame : J.t;
  sent : int;
}

let serve_connections () = max 1 (min 4 (Domain.recommended_domain_count ()))

let run_serve ~(d : Load.daemon) ~seed ~nominal_s ~overload_s =
  let n_nom = int_of_float (nominal_rate *. nominal_s) in
  let n_over = int_of_float (overload_rate *. overload_s) in
  (* Each kind's nominal requests are distinct jobs; overload re-sends them. *)
  let pool = max 1 (n_nom / List.length Load.kinds) in
  let nominal =
    Load.run_phase d ~seed ~pool ~first:0 ~n:n_nom ~rate:nominal_rate ~until:infinity
  in
  let t_over = now () in
  let overload =
    Load.run_phase d ~seed ~pool ~first:n_nom ~n:n_over ~rate:overload_rate
      ~until:(t_over +. overload_s)
  in
  let t_end = now () in
  let stats_frame = try Load.control d "stats" with e -> J.String (Printexc.to_string e) in
  (* Compare every reply with the same job run in this process. *)
  let expected = Hashtbl.create 64 in
  let matches (s : Load.sample) reply =
    let want =
      match Hashtbl.find_opt expected s.Load.job with
      | Some w -> w
      | None ->
          let w = Load.expected s.Load.job in
          Hashtbl.replace expected s.Load.job w;
          w
    in
    List.for_all (fun (k, v) -> J.member k reply = Some v) want
  in
  let correct (s : Load.sample) =
    match s.Load.outcome with Load.Ok_reply r -> matches s r | _ -> false
  in
  let wrong_reply (s : Load.sample) =
    match s.Load.outcome with Load.Ok_reply r -> not (matches s r) | _ -> false
  in
  let count p xs = List.length (List.filter p xs) in
  let s =
    {
      by_kind =
        List.map
          (fun k ->
            ( k,
              List.filter_map
                (fun (s : Load.sample) ->
                  if fst s.Load.job = k then Some ((s.Load.done_at -. s.Load.due) *. 1000.)
                  else None)
                nominal ))
          Load.kinds;
      goodput = float_of_int (count correct overload) /. (t_end -. t_over);
      nominal_failed = count (fun s -> not (correct s)) nominal;
      wrong = count wrong_reply (nominal @ overload);
      late_p99 = pct 99. (sorted (List.map (fun (s : Load.sample) -> s.Load.late_ms) nominal));
      stats_frame;
      sent = n_nom + n_over;
    }
  in
  let errored =
    count (fun (s : Load.sample) -> match s.Load.outcome with Load.Errored _ -> true | _ -> false)
  in
  let dropped =
    count (fun (s : Load.sample) ->
        match s.Load.outcome with
        | Load.Shed | Load.Timed_out | Load.Unsent -> true
        | Load.Ok_reply _ | Load.Errored _ -> false)
  in
  say "serve_open: %d connections, %d requests at %.0f/s then %d at %.0f/s" (serve_connections ())
    n_nom nominal_rate n_over overload_rate;
  say "  nominal: failed_share=%.4f" (float_of_int s.nominal_failed /. float_of_int n_nom);
  List.iter
    (fun (k, ms) ->
      say "    %s: %d requests, latency_ms_p50=%.3f latency_ms_tail: %s" (Load.kind_name k)
        (List.length ms) (median ms) (tail_str ms))
    s.by_kind;
  say "  overload: goodput_rps=%.3f shed/timed-out/unsent=%d errored=%d" s.goodput
    (dropped overload) (errored overload);
  say "  generator lateness p99=%.3f ms (bound %.0f ms): %s" s.late_p99 max_late_ms
    (if s.late_p99 <= max_late_ms then "valid" else "INVALID");
  say "  wrong replies=%d daemon stats: %s" s.wrong (J.to_string s.stats_frame);
  s

let serve_start env =
  let socket_path = Filename.concat env.out_dir (Printf.sprintf "vpp-%d.sock" (Unix.getpid ())) in
  Load.start ~socket_path ~n:(serve_connections ())

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)
(* ------------------------------------------------------------------ *)

(* One workload's traced sub-pass: the same seeds run untraced through
   [Driver.run_*] and traced through the mirror. *)
type pass = {
  workload : string;
  fidelity : bool;  (** Mirror counts equal the driver's on every seed. *)
  runs : int;
  metrics : (string * float * string) list;
  spans : Trace.span list;
}

(* [workload.layer.calls|self_ms|share] for each layer, then the extras.
   [share] is the layer's self time over the pass's traced busy time,
   shadow calls excluded; for a sequential pass that is run wall time. *)
let layer_metrics ~workload ~layers ~spans ?(calls = []) extras =
  let tbl = Trace.layers spans in
  let busy_ms = Trace.busy_ms spans in
  List.concat_map
    (fun layer ->
      let l = Option.value ~default:{ Trace.calls = 0; self_ms = 0. } (Hashtbl.find_opt tbl layer) in
      let n = Option.value ~default:l.Trace.calls (List.assoc_opt layer calls) in
      let name k = String.concat "." [ workload; layer; k ] in
      [
        (name "calls", float_of_int n, "count");
        (name "self_ms", l.Trace.self_ms, "ms");
        (name "share", ratio l.Trace.self_ms busy_ms, "ratio");
      ])
    layers
  @ List.map (fun (k, v, u) -> (workload ^ "." ^ k, v, u)) extras

let self_ms spans layer =
  match Hashtbl.find_opt (Trace.layers spans) layer with Some l -> l.Trace.self_ms | None -> 0.

let calls_of spans layer =
  match Hashtbl.find_opt (Trace.layers spans) layer with
  | Some l -> float_of_int l.Trace.calls
  | None -> 0.

(* Run [seeds] four times, each from a cold parse memo so every pass sees
   the same hits: through [driver] (the reference, which also warms the
   process up), then through [mirror] untraced, traced, and traced with
   shadow calls; the last gives the per-layer split. Every mirror pass
   must reproduce the driver's counts seed by seed. Tracing overhead is
   traced minus untraced mirror time, both without shadow calls. *)
let mirrored ~workload ~seeds ~driver ~mirror =
  let pass ~traced ~shadows f =
    Trace.enabled := traced;
    Trace.shadows := shadows;
    Exec.Memo.reset ();
    Trace.reset ();
    (* Every pass starts from the same compacted heap. *)
    Gc.compact ();
    let scope = Exec.Memo.scope () in
    let t = now () in
    let r =
      match f seeds with
      | r -> Some r
      | exception e ->
          say "  FAILED: %s pass raised %s" workload (Printexc.to_string e);
          None
    in
    (r, now () -. t, Exec.Memo.scope_stats scope)
  in
  let want, driver_s, _ = pass ~traced:false ~shadows:false driver in
  let got_plain, plain_s, _ = pass ~traced:false ~shadows:false mirror in
  let got_traced, traced_s, _ = pass ~traced:true ~shadows:false mirror in
  let got, split_s, memo = pass ~traced:true ~shadows:true mirror in
  let spans = Trace.spans () in
  let fidelity = want <> None && List.for_all (( = ) want) [ got_plain; got_traced; got ] in
  let overhead_ms = (traced_s -. plain_s) *. 1000. in
  say "%s traced: %d seeds, mirror counts %s the driver's; driver %.1f ms, mirror %.1f ms \
       untraced, %.1f ms traced (overhead %.1f ms), %.1f ms with shadow calls"
    workload (List.length seeds)
    (if fidelity then "equal" else "DIFFER FROM")
    (driver_s *. 1000.) (plain_s *. 1000.) (traced_s *. 1000.) overhead_ms (split_s *. 1000.);
  let common =
    [
      ( "llmsim.chat.fix_ratio",
        ratio (Trace.counter "llmsim.chat.fixes") (Trace.counter "llmsim.chat.prompts"),
        "ratio" );
      ( "exec.memo.hit_ratio",
        ratio (float_of_int memo.Exec.Memo.hits)
          (float_of_int (memo.Exec.Memo.hits + memo.Exec.Memo.misses)),
        "ratio" );
      ("trace.overhead_ms", overhead_ms, "ms");
    ]
  in
  (fidelity, spans, common)

let bytes_per_ms spans layer =
  ( layer ^ ".bytes_per_ms",
    ratio (Trace.counter (layer ^ ".bytes")) (self_ms spans layer),
    "bytes/ms" )

let translate_pass ~seed =
  let seeds = Exec.Sweep.seeds ~base:(seed * 100_000) ~n:30 in
  let fidelity, spans, common =
    mirrored ~workload:"translate" ~seeds
      ~driver:
        (List.map (fun s ->
             Mirror.counts_of_transcript (D.run_translation ~seed:s ~cisco_text ()).D.transcript))
      ~mirror:
        (List.map (fun s ->
             Trace.run ~id:s (fun () -> fst (Mirror.translation ~seed:s ~cisco_text))))
  in
  let layers =
    [
      "llmsim.chat"; "batfish.parse_check.junos"; "exec.memo"; "campion.differ";
      "juniper.translate"; "symbolic.policy_diff"; "symbolic.acl_diff"; "core.humanizer";
      "cisco.parser";
    ]
  in
  let extras =
    common
    @ [
        bytes_per_ms spans "batfish.parse_check.junos";
        ( "campion.differ.findings_per_call",
          ratio (Trace.counter "campion.differ.findings") (calls_of spans "campion.differ"),
          "ratio" );
      ]
  in
  {
    workload = "translate";
    fidelity;
    runs = List.length seeds;
    metrics = layer_metrics ~workload:"translate" ~layers ~spans extras;
    spans;
  }

let no_transit_layers =
  [
    "llmsim.chat"; "batfish.parse_check.cisco"; "exec.memo"; "cisco.parser";
    "topoverify.verifier"; "batfish.search_route_policies"; "core.lightyear";
    "core.humanizer"; "core.modularizer";
  ]

let srp_specs spans =
  ( "batfish.search_route_policies.specs_per_call",
    ratio
      (Trace.counter "batfish.search_route_policies.specs")
      (calls_of spans "batfish.search_route_policies"),
    "ratio" )

let no_transit_pass ~seed =
  let seeds = Exec.Sweep.seeds ~base:(seed * 100_000) ~n:2 in
  let fidelity, spans, common =
    mirrored ~workload:"no_transit_60" ~seeds
      ~driver:
        (List.map (fun s ->
             Mirror.counts_of_transcript (D.run_no_transit ~seed:s ~routers:60 ()).D.transcript))
      ~mirror:
        (List.map (fun s -> Trace.run ~id:s (fun () -> Mirror.no_transit ~seed:s ~routers:60)))
  in
  let extras = common @ [ bytes_per_ms spans "batfish.parse_check.cisco" ] in
  {
    workload = "no_transit_60";
    fidelity;
    runs = List.length seeds;
    metrics = layer_metrics ~workload:"no_transit_60" ~layers:no_transit_layers ~spans extras;
    spans;
  }

let counts_json (c : Mirror.counts) =
  J.Obj
    [
      ("human", J.Int c.Mirror.human);
      ("auto", J.Int c.Mirror.auto);
      ("converged", J.Bool c.Mirror.converged);
      ("rounds", J.Int c.Mirror.rounds);
    ]

let sweep_pass env =
  let seeds = Exec.Sweep.seeds ~base:(env.seed * 100_000) ~n:200 in
  let pool = Exec.Pool.create () in
  let dir = scratch_dir env "sweep-traced" in
  let store = Durable.Store.open_ ~truncate:true (Filename.concat dir "traced.jsonl") in
  let p0 = ref (Exec.Pool.stats pool) in
  let fidelity, spans, common =
    Fun.protect
      ~finally:(fun () ->
        Durable.Store.close store;
        Exec.Pool.shutdown pool;
        rm_rf dir)
      (fun () ->
        mirrored ~workload:"sweep_star7" ~seeds
          ~driver:(fun seeds ->
            let path = Filename.concat dir "journal.jsonl" in
            let journal =
              Exec.Sweep.journal ~path
                ~encode:(fun (r : D.synthesis_result) -> D.transcript_to_json r.D.transcript)
                ~decode:(fun _ -> None)
                ()
            in
            let rs =
              Exec.Sweep.run_seeds ~pool ~journal ~seeds (fun seed ->
                  D.run_no_transit ~seed ~routers:7 ())
            in
            Exec.Sweep.journal_close journal;
            (* Every seed is journaled, and every verified run re-checks. *)
            if List.length (Exec.Checkpoint.load path) <> List.length seeds then
              failwith "sweep journal is missing seeds";
            if not (List.for_all (check_no_transit ~routers:7) rs) then
              failwith "a verified star-7 run failed the no-transit check";
            List.map (fun (r : D.synthesis_result) -> Mirror.counts_of_transcript r.D.transcript) rs)
          ~mirror:(fun seeds ->
            p0 := Exec.Pool.stats pool;
            Trace.span "exec.pool" (fun () ->
                let ctx = Trace.ctx () in
                Exec.Sweep.run_seeds ~pool ~seeds (fun s ->
                    Trace.adopt ctx (fun () ->
                        let c = Trace.run ~id:s (fun () -> Mirror.no_transit ~seed:s ~routers:7) in
                        let ok =
                          Trace.span "durable.store" (fun () ->
                              Durable.Store.append store
                                (J.Obj [ ("seed", J.Int s); ("summary", counts_json c) ]))
                        in
                        if not ok then failwith "durable append failed";
                        c)))))
  in
  let p1 = Exec.Pool.stats pool in
  let utilization =
    ratio
      (p1.Exec.Pool.busy_s -. !p0.Exec.Pool.busy_s)
      ((p1.Exec.Pool.wall_s -. !p0.Exec.Pool.wall_s) *. float_of_int (max 1 p1.Exec.Pool.domains))
  in
  let extras =
    common
    @ [
        bytes_per_ms spans "batfish.parse_check.cisco";
        srp_specs spans;
        ("exec.pool.utilization", utilization, "ratio");
        ( "durable.store.append_ms_p50",
          median
            (List.filter_map
               (fun (sp : Trace.span) ->
                 if sp.Trace.name = "durable.store" then Some (Trace.dur sp *. 1000.) else None)
               spans),
          "ms" );
      ]
  in
  let layers = no_transit_layers @ [ "batfish.bgp_sim"; "exec.pool"; "durable.store" ] in
  {
    workload = "sweep_star7";
    fidelity;
    runs = List.length seeds;
    metrics =
      layer_metrics ~workload:"sweep_star7" ~layers ~spans
        ~calls:[ ("exec.pool", p1.Exec.Pool.jobs_completed - !p0.Exec.Pool.jobs_completed) ]
        extras;
    spans;
  }

(* The daemon is a separate process: its admission count is read from its
   own [stats] frame, and latency per job kind and goodput are measured by
   the client. Each kind has its own median, so none depends on the mix. *)
let serve_pass env =
  let d = serve_start env in
  let s =
    Fun.protect ~finally:(fun () -> Load.stop d) (fun () ->
        run_serve ~d ~seed:env.seed ~nominal_s:2. ~overload_s:1.5)
  in
  let get path =
    let rec go j = function
      | [] -> ( match j with J.Int n -> float_of_int n | J.Float f -> f | _ -> nan)
      | k :: rest -> ( match J.member k j with Some v -> go v rest | None -> nan)
    in
    go s.stats_frame path
  in
  let shed = get [ "admission"; "shed_capacity" ] +. get [ "admission"; "shed_per_client" ] in
  let m k v u = ("serve_open." ^ k, v, u) in
  {
    workload = "serve_open";
    fidelity = s.wrong = 0 && s.nominal_failed = 0 && s.late_p99 <= max_late_ms;
    runs = s.sent;
    metrics =
      m "resilience.admission.calls" (get [ "admission"; "admitted" ] +. shed) "count"
      :: m "goodput_rps" s.goodput "1/s"
      :: List.map
           (fun (k, ms) -> m (Load.kind_name k ^ ".latency_ms_p50") (median ms) "ms")
           s.by_kind;
    spans = [];
  }

let traced env =
  let translate = translate_pass ~seed:env.seed in
  let no_transit = no_transit_pass ~seed:env.seed in
  let sweep = sweep_pass env in
  let passes = [ translate; no_transit; sweep; serve_pass env ] in
  let path = Filename.concat env.out_dir (Printf.sprintf "trace-%d.json" env.seed) in
  Trace.write_chrome path (List.concat_map (fun p -> p.spans) passes);
  say "trace: %s" path;
  List.iter
    (fun p ->
      List.iter
        (fun (name, v, unit) -> if v <> 0. then say "  %-60s %14.4f %s" name v unit)
        p.metrics)
    passes;
  let bad = List.filter (fun p -> not p.fidelity) passes in
  {
    correct = bad = [];
    attempted = List.fold_left (fun acc p -> acc + p.runs) 0 passes;
    failed = List.length bad;
    metrics = List.concat_map (fun p -> p.metrics) passes;
  }

(* The benchmark's own test: a second traced run records the same spans,
   and the mirror keeps the driver's counts. *)
let self_test () =
  let once () =
    Exec.Memo.reset ();
    Trace.reset ();
    let seeds = Exec.Sweep.seeds ~base:7 ~n:3 in
    let same =
      List.for_all
        (fun s ->
          let t = (D.run_translation ~seed:s ~cisco_text ()).D.transcript in
          let n = (D.run_no_transit ~seed:s ~routers:7 ()).D.transcript in
          Mirror.counts_of_transcript t
          = Trace.run ~id:s (fun () -> fst (Mirror.translation ~seed:s ~cisco_text))
          && Mirror.counts_of_transcript n
             = Trace.run ~id:s (fun () -> Mirror.no_transit ~seed:s ~routers:7))
        seeds
    in
    let counts =
      Hashtbl.fold (fun k (l : Trace.layer) acc -> (k, l.Trace.calls) :: acc) (Trace.layers (Trace.spans ())) []
    in
    (same, List.sort compare counts)
  in
  let same1, c1 = once () in
  let same2, c2 = once () in
  let ok = same1 && same2 && c1 = c2 && c1 <> [] in
  if not ok then
    List.iter (fun (run, c) -> List.iter (fun (k, n) -> say "run %d: %-40s %d" run k n) c) [ (1, c1); (2, c2) ];
  say "self-test: mirror %s the driver; span counts %s"
    (if same1 && same2 then "matches" else "DIFFERS FROM")
    (if c1 = c2 then "repeat" else "DIFFER");
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("translate", translate);
    ("no_transit_60", no_transit_60);
  ]

let usage () =
  prerr_endline
    "usage: vppbench --workload W --seed N --seconds S --trace 0|1 [--t0 T] [--setup-only] \
     [--out-dir DIR]\n       vppbench --self-test";
  exit 2

let () =
  let t_start = now () in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | x :: v :: _ when x = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let flag k = List.mem k args in
  match opt "--daemon" args with
  | Some sock -> Load.daemon_main sock
  | None ->
      if flag "--self-test" then self_test ();
      let num f k = Option.map f (opt k args) in
      let env, trace =
        match
          ( num int_of_string "--seed",
            num float_of_string "--seconds",
            num int_of_string "--trace" )
        with
        | Some seed, Some seconds, Some trace ->
            ( {
                seed;
                seconds;
                t0 = Option.value ~default:t_start (num float_of_string "--t0");
                setup_only = flag "--setup-only";
                out_dir = Option.value ~default:"." (opt "--out-dir" args);
              },
              trace = 1 )
        | _ -> usage ()
        | exception Failure _ -> usage ()
      in
      let result =
        if trace then traced env
        else
          match Option.bind (opt "--workload" args) (fun w -> List.assoc_opt w workloads) with
          | Some run -> run env
          | None -> usage ()
      in
      print_result result
