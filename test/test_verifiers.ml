(* Tests for the verifier suite: Batfish-equivalent (parse check, search
   route policies, BGP simulation), the topology verifier, and the
   Campion-equivalent differ. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn
let comm = Community.of_string_exn

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Parse check                                                         *)
(* ------------------------------------------------------------------ *)

let test_parse_check_dialects () =
  check bool_t "cisco ok" true
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Cisco_ios Cisco.Samples.border_router);
  let junos =
    Juniper.Printer.print
      (Juniper.Translate.of_cisco_ir (fst (Cisco.Parser.parse Cisco.Samples.border_router)))
  in
  check bool_t "junos ok" true (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Junos junos);
  check bool_t "garbage cisco" false
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Cisco_ios "utter nonsense here\n")

let test_parse_check_lint_included () =
  let text = "router bgp 1\n neighbor 1.0.0.2 remote-as 2\n neighbor 1.0.0.2 route-map nope in\n" in
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "lint appended" true
    (List.exists (fun d -> contains ~sub:"undefined route-map" (Diag.to_string d)) diags)

(* ------------------------------------------------------------------ *)
(* Search route policies                                               *)
(* ------------------------------------------------------------------ *)

let config_with maps lists =
  { (Config_ir.empty "r") with Config_ir.route_maps = maps; community_lists = lists }

let cl name c = Community_list.make name [ Community_list.entry [ comm c ] ]

let space_with_community c =
  Symbolic.Pred.of_cube
    (Symbolic.Cube.make ~comms:(Symbolic.Comm_constr.require (comm c)) ())

let test_srp_holds () =
  let map =
    Route_map.make "FILTER"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:[ Route_map.Match_community_list "cl1" ] 10;
        Route_map.entry 20;
      ]
  in
  let cfg = config_with [ map ] [ cl "cl1" "101:1" ] in
  let spec =
    {
      Batfish.Search_route_policies.policy = "FILTER";
      space = space_with_community "101:1";
      requirement = Batfish.Search_route_policies.Denies;
      description = "routes with 101:1";
    }
  in
  check bool_t "holds" true (Batfish.Search_route_policies.check cfg spec = Batfish.Search_route_policies.Holds)

let test_srp_counterexample () =
  (* AND semantics bug: both communities required to deny. *)
  let map =
    Route_map.make "FILTER"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:
            [
              Route_map.Match_community_list "cl1";
              Route_map.Match_community_list "cl2";
            ]
          10;
        Route_map.entry 20;
      ]
  in
  let cfg = config_with [ map ] [ cl "cl1" "101:1"; cl "cl2" "102:1" ] in
  let spec =
    {
      Batfish.Search_route_policies.policy = "FILTER";
      space = space_with_community "101:1";
      requirement = Batfish.Search_route_policies.Denies;
      description = "routes with 101:1";
    }
  in
  match Batfish.Search_route_policies.check cfg spec with
  | Batfish.Search_route_policies.Violated v ->
      check bool_t "example has 101:1" true
        (Route.has_community v.Batfish.Search_route_policies.example (comm "101:1"));
      check bool_t "example permitted" true
        (v.Batfish.Search_route_policies.got_action = Action.Permit)
  | _ -> Alcotest.fail "expected violation"

let test_srp_adds_community () =
  let good =
    Route_map.make "TAG"
      [
        Route_map.entry
          ~sets:[ Route_map.Set_community { communities = [ comm "100:1" ]; additive = true } ]
          10;
      ]
  in
  let replacing =
    Route_map.make "TAG"
      [
        Route_map.entry
          ~sets:[ Route_map.Set_community { communities = [ comm "100:1" ]; additive = false } ]
          10;
      ]
  in
  let spec =
    {
      Batfish.Search_route_policies.policy = "TAG";
      space = Symbolic.Pred.full;
      requirement = Batfish.Search_route_policies.Adds_community (comm "100:1");
      description = "everything";
    }
  in
  check bool_t "additive holds" true
    (Batfish.Search_route_policies.check (config_with [ good ] []) spec
    = Batfish.Search_route_policies.Holds);
  match Batfish.Search_route_policies.check (config_with [ replacing ] []) spec with
  | Batfish.Search_route_policies.Violated v ->
      check bool_t "flags replacement" true v.Batfish.Search_route_policies.replaced_communities
  | _ -> Alcotest.fail "expected violation for replacing set"

let test_srp_policy_missing () =
  let spec =
    {
      Batfish.Search_route_policies.policy = "GHOST";
      space = Symbolic.Pred.full;
      requirement = Batfish.Search_route_policies.Permits;
      description = "";
    }
  in
  check bool_t "missing" true
    (Batfish.Search_route_policies.check (Config_ir.empty "r") spec
    = Batfish.Search_route_policies.Policy_missing)

(* ------------------------------------------------------------------ *)
(* BGP simulation                                                      *)
(* ------------------------------------------------------------------ *)

let star5 = Star.make ~routers:5
let tasks5 = Cosynth.Modularizer.plan star5
let configs5 = List.map (fun (t : Cosynth.Modularizer.router_task) -> (t.router, t.correct)) tasks5
let net5 = Cosynth.Modularizer.compose star5 configs5
let ribs5 = Batfish.Bgp_sim.run net5

let test_sim_converges () =
  check int_t "all routers have ribs" 5 (List.length (Batfish.Bgp_sim.routers ribs5))

let test_sim_customer_reachable_everywhere () =
  List.iter
    (fun s ->
      check bool_t (s ^ " reaches customer") true
        (Batfish.Bgp_sim.reachable ribs5 ~router:s (pfx "10.0.0.0/24")))
    star5.Star.spokes

let test_sim_no_transit () =
  (* R2 must not see R3's ISP network and vice versa. *)
  check bool_t "R2 lacks 10.3.0.0/24" false
    (Batfish.Bgp_sim.reachable ribs5 ~router:"R2" (pfx "10.3.0.0/24"));
  check bool_t "R3 lacks 10.2.0.0/24" false
    (Batfish.Bgp_sim.reachable ribs5 ~router:"R3" (pfx "10.2.0.0/24"));
  check bool_t "hub sees all" true
    (Batfish.Bgp_sim.reachable ribs5 ~router:"R1" (pfx "10.4.0.0/24"))

let test_sim_communities_tagged () =
  (* The hub's copy of an ISP route carries that ISP's community. *)
  match Batfish.Bgp_sim.lookup ribs5 ~router:"R1" (pfx "10.2.0.0/24") with
  | Some e ->
      check bool_t "tagged with 100:1" true
        (Route.has_community e.Batfish.Bgp_sim.route (comm "100:1"))
  | None -> Alcotest.fail "hub must know ISP 2's network"

let test_sim_as_path_loop_prevention () =
  (* Routes learned by a spoke never contain its own AS. *)
  List.iter
    (fun (e : Batfish.Bgp_sim.rib_entry) ->
      check bool_t "no own AS" false (As_path.mem 2 e.Batfish.Bgp_sim.route.Route.as_path))
    (Batfish.Bgp_sim.rib ribs5 "R2")

let test_sim_without_filters_transits () =
  (* Strip the hub's export policies: ISP routes leak to other ISPs. *)
  let configs =
    List.map
      (fun (name, (c : Config_ir.t)) ->
        if name = "R1" then
          match c.Config_ir.bgp with
          | Some b ->
              let neighbors =
                List.map
                  (fun (n : Config_ir.neighbor) -> { n with Config_ir.export_policy = None })
                  b.Config_ir.neighbors
              in
              (name, { c with Config_ir.bgp = Some { b with Config_ir.neighbors } })
          | None -> (name, c)
        else (name, c))
      configs5
  in
  let ribs = Batfish.Bgp_sim.run (Cosynth.Modularizer.compose star5 configs) in
  check bool_t "R2 now sees 10.3.0.0/24" true
    (Batfish.Bgp_sim.reachable ribs ~router:"R2" (pfx "10.3.0.0/24"));
  let ok, violations = Cosynth.Modularizer.no_transit_holds star5 configs in
  check bool_t "global check fails" false ok;
  check bool_t "violation mentions transit" true
    (List.exists (contains ~sub:"transit") violations)

let test_sim_missing_config_is_isolated () =
  let configs = List.remove_assoc "R3" configs5 in
  let ribs = Batfish.Bgp_sim.run (Cosynth.Modularizer.compose star5 configs) in
  check bool_t "R3 has empty rib" true (Batfish.Bgp_sim.rib ribs "R3" = []);
  check bool_t "others still work" true
    (Batfish.Bgp_sim.reachable ribs ~router:"R2" (pfx "10.0.0.0/24"))

(* ------------------------------------------------------------------ *)
(* Topology verifier                                                   *)
(* ------------------------------------------------------------------ *)

let hub_correct = List.assoc "R1" configs5
let spoke_correct = List.assoc "R2" configs5

let test_topo_clean () =
  check int_t "hub clean" 0
    (List.length (Topoverify.Verifier.check star5.Star.topology ~router:"R1" hub_correct));
  check int_t "spoke clean" 0
    (List.length (Topoverify.Verifier.check star5.Star.topology ~router:"R2" spoke_correct))

let findings_for config router =
  Topoverify.Verifier.check star5.Star.topology ~router config

let test_topo_wrong_local_as () =
  let bad =
    match spoke_correct.Config_ir.bgp with
    | Some b -> { spoke_correct with Config_ir.bgp = Some { b with Config_ir.asn = 9 } }
    | None -> assert false
  in
  let fs = findings_for bad "R2" in
  check bool_t "local as flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         f.Topoverify.Verifier.kind = Topoverify.Verifier.Local_as_mismatch
         && contains ~sub:"Expected 2, found 9" f.Topoverify.Verifier.message)
       fs)

let test_topo_missing_neighbor () =
  let bad =
    match hub_correct.Config_ir.bgp with
    | Some b ->
        {
          hub_correct with
          Config_ir.bgp =
            Some
              {
                b with
                Config_ir.neighbors =
                  List.filter
                    (fun (n : Config_ir.neighbor) ->
                      not (Ipv4.equal n.Config_ir.addr (ip "1.0.0.2")))
                    b.Config_ir.neighbors;
              };
        }
    | None -> assert false
  in
  let fs = findings_for bad "R1" in
  check bool_t "neighbor flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"Neighbor with IP address 1.0.0.2 and AS 2 not declared"
           f.Topoverify.Verifier.message)
       fs)

let test_topo_incorrect_network () =
  let bad =
    match hub_correct.Config_ir.bgp with
    | Some b ->
        {
          hub_correct with
          Config_ir.bgp =
            Some { b with Config_ir.networks = b.Config_ir.networks @ [ pfx "7.0.0.0/24" ] };
        }
    | None -> assert false
  in
  let fs = findings_for bad "R1" in
  check bool_t "network flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"7.0.0.0/24 is not directly connected to R1"
           f.Topoverify.Verifier.message)
       fs)

let test_topo_interface_address () =
  let bad =
    {
      spoke_correct with
      Config_ir.interfaces =
        List.map
          (fun (i : Config_ir.interface) ->
            match i.Config_ir.address with
            | Some (a, l) -> { i with Config_ir.address = Some (Ipv4.succ a, l) }
            | None -> i)
          spoke_correct.Config_ir.interfaces;
    }
  in
  let fs = findings_for bad "R2" in
  check bool_t "address flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         f.Topoverify.Verifier.kind = Topoverify.Verifier.Interface_address_mismatch)
       fs)

let test_topo_mask_length_mismatch () =
  let bad =
    {
      spoke_correct with
      Config_ir.interfaces =
        List.map
          (fun (i : Config_ir.interface) ->
            match i.Config_ir.address with
            | Some (a, _) -> { i with Config_ir.address = Some (a, 30) }
            | None -> i)
          spoke_correct.Config_ir.interfaces;
    }
  in
  let fs = findings_for bad "R2" in
  check bool_t "mask flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"mask length does not match" f.Topoverify.Verifier.message)
       fs)

let test_topo_missing_interface () =
  let bad = { spoke_correct with Config_ir.interfaces = [] } in
  let fs = findings_for bad "R2" in
  check bool_t "two missing interfaces" true
    (List.length
       (List.filter
          (fun (f : Topoverify.Verifier.finding) ->
            f.Topoverify.Verifier.kind = Topoverify.Verifier.Missing_interface)
          fs)
    = 2)

let test_topo_router_id_absent () =
  let bad =
    match spoke_correct.Config_ir.bgp with
    | Some b -> { spoke_correct with Config_ir.bgp = Some { b with Config_ir.router_id = None } }
    | None -> assert false
  in
  let fs = findings_for bad "R2" in
  check bool_t "absent router id flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"Router ID is not configured" f.Topoverify.Verifier.message)
       fs)

let test_topo_no_bgp_process () =
  let bad = { spoke_correct with Config_ir.bgp = None } in
  let fs = findings_for bad "R2" in
  check bool_t "flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         f.Topoverify.Verifier.kind = Topoverify.Verifier.No_bgp_process)
       fs)

let test_topo_from_json () =
  let json = Star.to_json star5 in
  match Topoverify.Verifier.check_from_json json ~router:"R2" spoke_correct with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "unexpected findings: %d" (List.length fs)
  | Error e -> Alcotest.fail e

let test_topo_from_json_unlisted_link_router () =
  (* A dictionary whose link names a router it does not list (the F1
     fuzz gate's mutant: a router renamed, its links left alone) is
     rejected as an [Error], not an exception out of the router lookup. *)
  let rename = function
    | Json.Obj fields when List.assoc_opt "name" fields = Some (Json.String "R3") ->
        Json.Obj
          (List.map (fun (k, v) -> if k = "name" then (k, Json.String "R9") else (k, v)) fields)
    | j -> j
  in
  let json =
    match Star.to_json star5 with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "routers", Json.List rs -> ("routers", Json.List (List.map rename rs))
               | kv -> kv)
             fields)
    | j -> j
  in
  match Topoverify.Verifier.check_from_json json ~router:"R1" hub_correct with
  | Error e -> check bool_t "names the unlisted router" true (contains ~sub:"R3" e)
  | Ok _ -> Alcotest.fail "dictionary with a dangling link accepted"

(* ------------------------------------------------------------------ *)
(* Campion                                                             *)
(* ------------------------------------------------------------------ *)

let border_ir = fst (Cisco.Parser.parse Cisco.Samples.border_router)
let correct_translation = Juniper.Translate.of_cisco_ir border_ir

let reparse_junos ir =
  fst (Juniper.Parser.parse (Juniper.Printer.print ir))

let test_campion_clean_on_correct_translation () =
  let translation = reparse_junos correct_translation in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  if findings <> [] then
    Alcotest.failf "unexpected findings:\n%s"
      (String.concat "\n" (List.map Campion.Differ.finding_to_string findings))

let with_fault cls target =
  let f = Llmsim.Fault.make cls target in
  let text = Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_translation [ f ] in
  fst (Juniper.Parser.parse text)

let test_campion_missing_policy () =
  let translation =
    with_fault Llmsim.Error_class.Missing_import_policy (Llmsim.Fault.Neighbor (ip "2.3.4.5"))
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "structural missing import" true
    (List.exists
       (function
         | Campion.Differ.Structural
             (Campion.Differ.Missing_policy
               { neighbor; direction = Campion.Differ.Import; missing_in_translation = true })
           -> Ipv4.equal neighbor (ip "2.3.4.5")
         | _ -> false)
       findings)

let test_campion_cost_difference () =
  let translation =
    with_fault Llmsim.Error_class.Ospf_cost_wrong (Llmsim.Fault.Interface (Iface.loopback 0))
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "cost diff 1 vs 0" true
    (List.exists
       (function
         | Campion.Differ.Attribute a ->
             a.Campion.Differ.attribute = "cost"
             && a.Campion.Differ.original_value = "1"
             && a.Campion.Differ.translated_value = "0"
         | _ -> false)
       findings)

let test_campion_med_difference () =
  let translation =
    with_fault Llmsim.Error_class.Wrong_med (Llmsim.Fault.Policy_entry ("to_provider", 10))
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "behavior MED diff" true
    (List.exists
       (function
         | Campion.Differ.Behavior b ->
             List.exists (fun (attr, _, _) -> attr = "MED") b.Campion.Differ.effect_detail
         | _ -> false)
       findings)

let test_campion_redistribution_difference () =
  let translation = with_fault Llmsim.Error_class.Redistribution_unscoped Llmsim.Fault.Whole_config in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "redistribution flagged with non-bgp witness" true
    (List.exists
       (function
         | Campion.Differ.Behavior b -> b.Campion.Differ.is_redistribution
         | _ -> false)
       findings)

let test_campion_prefix_range_difference () =
  let translation =
    with_fault Llmsim.Error_class.Prefix_range_dropped (Llmsim.Fault.Named_list "our-networks")
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  (* The dropped ge 24 means /25..32 under 1.2.3.0/24 are treated
     differently; the witness must be such a prefix. *)
  check bool_t "witness is a longer prefix of 1.2.3.0/24" true
    (List.exists
       (function
         | Campion.Differ.Behavior b ->
             Prefix.subsumes (pfx "1.2.3.0/24") b.Campion.Differ.example.Route.prefix
             && Prefix.len b.Campion.Differ.example.Route.prefix > 24
         | _ -> false)
       findings)

let test_campion_structural_masks_nothing_on_equal () =
  check bool_t "equivalent reflexive" true
    (Campion.Differ.equivalent ~original:border_ir
       ~translation:(reparse_junos correct_translation))

(* ------------------------------------------------------------------ *)
(* Campion cache                                                       *)
(* ------------------------------------------------------------------ *)

(* The differ memoizes normalisation and the per-pair symbolic diffs. A
   cached call must return exactly what a call after [reset_cache] does,
   and every live entry must match a fresh recompute — also after runs
   whose verifiers lie or crash, which shows the cache sits below those
   wrappers. *)

let audit_clean what =
  match Campion.Differ.audit_cache () with
  | Ok n -> check bool_t (what ^ ": entries audited") true (n > 0)
  | Error table -> Alcotest.failf "%s: a cached %s entry differs from a fresh one" what table

let compare_warm_and_cold ~original ~translation =
  let run () =
    try Ok (Campion.Differ.compare ~original ~translation)
    with e -> Error (Printexc.to_string e)
  in
  let warm = run () in
  Campion.Differ.reset_cache ();
  warm = run ()

let translation_outputs (_, resilience, adversary, trust) seed =
  let r =
    Cosynth.Driver.run_translation ~seed ?resilience ?adversary ?trust
      ~cisco_text:Cisco.Samples.border_router ()
  in
  ( Json.to_string (Cosynth.Driver.transcript_to_json r.Cosynth.Driver.transcript),
    r.Cosynth.Driver.final_text,
    r.Cosynth.Driver.verified )

let test_cache_translation ((name, _, _, _) as setting) () =
  let seeds = List.init 20 (fun i -> i + 1) in
  (* Cold: every run starts from an empty cache. *)
  let cold =
    List.map
      (fun seed ->
        Campion.Differ.reset_cache ();
        translation_outputs setting seed)
      seeds
  in
  (* Warm: one cache across all twenty runs. *)
  Campion.Differ.reset_cache ();
  let warm = List.map (translation_outputs setting) seeds in
  List.iter2
    (fun seed (c, w) -> check bool_t (Printf.sprintf "%s seed %d" name seed) true (c = w))
    seeds
    (List.combine cold warm);
  audit_clean name

let test_cache_fuzz_corpus () =
  Campion.Differ.reset_cache ();
  let corpus = Fuzz.Corpus.texts Fuzz.Corpus.Junos in
  let mutants =
    List.init 60 (fun round -> Fuzz.Mutator.mutant ~seed:14 ~round ~corpus)
  in
  let reference = Fuzz.Corpus.reference_ir Fuzz.Corpus.Junos in
  let border = fst (Cisco.Parser.parse Cisco.Samples.border_router) in
  List.iteri
    (fun i text ->
      let ir = fst (Juniper.Parser.parse text) in
      (* Warm the tables with neighbouring inputs before each check. *)
      ignore (Campion.Differ.compare ~original:border ~translation:reference);
      check bool_t (Printf.sprintf "corpus text %d against the original" i) true
        (compare_warm_and_cold ~original:border ~translation:ir);
      check bool_t (Printf.sprintf "corpus text %d as the original" i) true
        (compare_warm_and_cold ~original:ir ~translation:reference))
    (corpus @ mutants);
  (* Fill the tables with the whole corpus, then audit every entry. *)
  List.iter
    (fun text ->
      ignore
        (Campion.Differ.compare ~original:border
           ~translation:(fst (Juniper.Parser.parse text))))
    (corpus @ mutants);
  audit_clean "fuzz corpus"

(* Two translations whose environments differ only in a community list no
   map references. The witness decoration draws on every community list,
   so here the unreferenced list changes the example route: a cache keyed
   on the referenced lists alone would return the other pair's finding. *)
let test_cache_unreferenced_community_list () =
  let config ~extra =
    fst
      (Cisco.Parser.parse
         (String.concat "\n"
            ((if extra then [ "ip community-list standard UNUSED permit 200:2" ] else [])
            @ [
                "ip community-list standard DEL permit 200:1";
                "ip community-list standard DEL permit 200:2";
                "route-map RM permit 10";
                " set comm-list DEL delete";
                "router bgp 100";
                " neighbor 10.0.0.2 remote-as 200";
                " neighbor 10.0.0.2 route-map RM out";
                "";
              ])))
  in
  let original =
    fst
      (Cisco.Parser.parse
         "route-map RM permit 10\nrouter bgp 100\n neighbor 10.0.0.2 remote-as 200\n\
         \ neighbor 10.0.0.2 route-map RM out\n")
  in
  let plain = config ~extra:false and extra = config ~extra:true in
  let examples translation =
    List.filter_map
      (function Campion.Differ.Behavior b -> Some b.Campion.Differ.example | _ -> None)
      (Campion.Differ.compare ~original ~translation)
  in
  Campion.Differ.reset_cache ();
  let fresh_plain = examples plain in
  Campion.Differ.reset_cache ();
  let fresh_extra = examples extra in
  check bool_t "a behavior difference is found" true (fresh_plain <> []);
  check bool_t "the unreferenced list changes the witness" true (fresh_plain <> fresh_extra);
  Campion.Differ.reset_cache ();
  ignore (examples plain);
  check bool_t "cached after the other pair = fresh" true (examples extra = fresh_extra);
  check bool_t "and back" true (examples plain = fresh_plain);
  audit_clean "unreferenced list"

let () =
  Alcotest.run "verifiers"
    [
      ( "parse-check",
        [
          Alcotest.test_case "dialect dispatch" `Quick test_parse_check_dialects;
          Alcotest.test_case "lint included" `Quick test_parse_check_lint_included;
        ] );
      ( "search-route-policies",
        [
          Alcotest.test_case "holds" `Quick test_srp_holds;
          Alcotest.test_case "counterexample" `Quick test_srp_counterexample;
          Alcotest.test_case "adds community" `Quick test_srp_adds_community;
          Alcotest.test_case "policy missing" `Quick test_srp_policy_missing;
        ] );
      ( "bgp-sim",
        [
          Alcotest.test_case "converges" `Quick test_sim_converges;
          Alcotest.test_case "customer reachable" `Quick test_sim_customer_reachable_everywhere;
          Alcotest.test_case "no transit with filters" `Quick test_sim_no_transit;
          Alcotest.test_case "communities tagged" `Quick test_sim_communities_tagged;
          Alcotest.test_case "loop prevention" `Quick test_sim_as_path_loop_prevention;
          Alcotest.test_case "transit without filters" `Quick test_sim_without_filters_transits;
          Alcotest.test_case "missing config isolated" `Quick test_sim_missing_config_is_isolated;
        ] );
      ( "topology-verifier",
        [
          Alcotest.test_case "clean configs" `Quick test_topo_clean;
          Alcotest.test_case "wrong local as" `Quick test_topo_wrong_local_as;
          Alcotest.test_case "missing neighbor" `Quick test_topo_missing_neighbor;
          Alcotest.test_case "incorrect network" `Quick test_topo_incorrect_network;
          Alcotest.test_case "interface address" `Quick test_topo_interface_address;
          Alcotest.test_case "mask length" `Quick test_topo_mask_length_mismatch;
          Alcotest.test_case "missing interfaces" `Quick test_topo_missing_interface;
          Alcotest.test_case "router id absent" `Quick test_topo_router_id_absent;
          Alcotest.test_case "no bgp process" `Quick test_topo_no_bgp_process;
          Alcotest.test_case "from json" `Quick test_topo_from_json;
          Alcotest.test_case "from json, link to unlisted router" `Quick
            test_topo_from_json_unlisted_link_router;
        ] );
      ( "campion",
        [
          Alcotest.test_case "clean on correct translation" `Quick
            test_campion_clean_on_correct_translation;
          Alcotest.test_case "missing policy" `Quick test_campion_missing_policy;
          Alcotest.test_case "cost difference" `Quick test_campion_cost_difference;
          Alcotest.test_case "med difference" `Quick test_campion_med_difference;
          Alcotest.test_case "redistribution difference" `Quick
            test_campion_redistribution_difference;
          Alcotest.test_case "prefix range difference" `Quick
            test_campion_prefix_range_difference;
          Alcotest.test_case "equivalence reflexive" `Quick
            test_campion_structural_masks_nothing_on_equal;
        ] );
      ( "campion-cache",
        List.map
          (fun ((name, _, _, _) as setting) ->
            Alcotest.test_case ("translation seeds 1-20, " ^ name) `Quick
              (test_cache_translation setting))
          Run_settings.all
        @ [
            Alcotest.test_case "junos fuzz corpus" `Quick test_cache_fuzz_corpus;
            Alcotest.test_case "unreferenced community list" `Quick
              test_cache_unreferenced_community_list;
          ] );
    ]
