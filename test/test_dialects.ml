(* Tests for the Cisco and Junos dialect front ends: parsing, printing,
   round trips, targeted diagnostics, and the reference translation. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let diag_with ~sub diags = List.exists (fun d -> contains ~sub (Diag.to_string d)) diags

let border_ir, border_diags = Cisco.Parser.parse Cisco.Samples.border_router

(* ------------------------------------------------------------------ *)
(* Cisco parsing                                                       *)
(* ------------------------------------------------------------------ *)

let test_cisco_parses_clean () =
  check int_t "no diagnostics"
    0
    (List.length border_diags);
  check string_t "hostname" "border1" border_ir.Config_ir.hostname;
  check int_t "interfaces" 3 (List.length border_ir.Config_ir.interfaces);
  check int_t "prefix lists" 3 (List.length border_ir.Config_ir.prefix_lists);
  check int_t "route maps" 4 (List.length border_ir.Config_ir.route_maps)

let test_cisco_bgp_block () =
  match border_ir.Config_ir.bgp with
  | None -> Alcotest.fail "expected bgp"
  | Some b ->
      check int_t "asn" 65001 b.Config_ir.asn;
      check int_t "neighbors" 2 (List.length b.Config_ir.neighbors);
      check int_t "networks" 1 (List.length b.Config_ir.networks);
      check int_t "redistributions" 1 (List.length b.Config_ir.redistributions);
      let provider =
        Option.get (Config_ir.find_neighbor b (ip "2.3.4.5"))
      in
      check bool_t "import" true (provider.Config_ir.import_policy = Some "from_provider");
      check bool_t "export" true (provider.Config_ir.export_policy = Some "to_provider");
      check int_t "remote as" 65002 provider.Config_ir.remote_as

let test_cisco_ospf_block () =
  match border_ir.Config_ir.ospf with
  | None -> Alcotest.fail "expected ospf"
  | Some o ->
      check int_t "networks" 2 (List.length o.Config_ir.networks);
      let lo =
        List.find
          (fun (oi : Config_ir.ospf_interface) -> Iface.is_loopback oi.iface)
          o.Config_ir.interfaces
      in
      check bool_t "loopback cost merged" true (lo.Config_ir.cost = Some 1);
      check bool_t "loopback passive" true lo.Config_ir.passive

let test_cisco_prefix_list_ge () =
  let l = Option.get (Config_ir.find_prefix_list border_ir "our-networks") in
  check bool_t "matches /24" true (Prefix_list.matches l (pfx "1.2.3.0/24"));
  check bool_t "matches /28" true (Prefix_list.matches l (pfx "1.2.3.16/28"));
  check bool_t "rejects /16" false (Prefix_list.matches l (pfx "1.2.0.0/16"))

let test_cisco_round_trip () =
  let printed = Cisco.Printer.print border_ir in
  let reparsed, diags = Cisco.Parser.parse printed in
  check int_t "no diagnostics on canonical output" 0 (List.length diags);
  check bool_t "round trip" true (Config_ir.equal border_ir reparsed)

let test_cisco_lint_clean () =
  check int_t "no lint findings" 0 (List.length (Cisco.Lint.check border_ir))

(* Targeted diagnostics *)

let test_cisco_match_community_literal () =
  let text =
    "route-map FILTER_ROUTES permit 10\n match community 100:1\n" in
  let _, diags = Cisco.Parser.parse text in
  check bool_t "flags literal community" true
    (diag_with ~sub:"'match community 100:1' is invalid" diags)

let test_cisco_cli_keyword () =
  let _, diags = Cisco.Parser.parse "configure terminal\nhostname r1\nend\n" in
  check bool_t "flags configure terminal" true
    (diag_with ~sub:"interactive CLI command" diags);
  check bool_t "flags end" true
    (List.length (List.filter (fun d -> contains ~sub:"CLI command" (Diag.to_string d)) diags) >= 2)

let test_cisco_misplaced_neighbor () =
  let text =
    String.concat "\n"
      [
        "router bgp 1";
        " neighbor 1.0.0.2 remote-as 2";
        "!";
        "neighbor 1.0.0.2 route-map FOO out";
        "";
      ]
  in
  let ir, diags = Cisco.Parser.parse text in
  check bool_t "flags misplaced neighbor" true
    (diag_with ~sub:"only valid inside a 'router bgp'" diags);
  (* And the attachment must NOT have happened. *)
  let b = Option.get ir.Config_ir.bgp in
  let n = Option.get (Config_ir.find_neighbor b (ip "1.0.0.2")) in
  check bool_t "no export attached" true (n.Config_ir.export_policy = None)

let test_cisco_community_list_regex () =
  let _, diags =
    Cisco.Parser.parse "ip community-list standard COMM_LIST_R2_OUT permit .+\n"
  in
  check bool_t "flags regex in standard list" true
    (diag_with ~sub:"wrong syntax" diags)

let test_cisco_prefix_list_missing_seq () =
  let _, diags = Cisco.Parser.parse "ip prefix-list pl permit 1.2.3.0/24\n" in
  check bool_t "asks for seq" true (diag_with ~sub:"missing 'seq" diags)

let test_cisco_neighbor_without_remote_as () =
  let text = "router bgp 1\n neighbor 9.9.9.9 route-map X in\n" in
  let _, diags = Cisco.Parser.parse text in
  check bool_t "warns remote-as" true (diag_with ~sub:"no remote-as" diags)

let test_cisco_set_community_default_replaces () =
  let text =
    "route-map ADD_COMMUNITY permit 10\n set community 100:1\n" in
  let ir, diags = Cisco.Parser.parse text in
  check int_t "parses fine (it is valid, just dangerous)" 0 (List.length diags);
  let m = Option.get (Config_ir.find_route_map ir "ADD_COMMUNITY") in
  match (List.hd m.Route_map.entries).Route_map.sets with
  | [ Route_map.Set_community { additive; _ } ] ->
      check bool_t "non-additive" false additive
  | _ -> Alcotest.fail "expected one set community"

let test_cisco_lint_dangling () =
  let text =
    String.concat "\n"
      [
        "route-map m permit 10";
        " match ip address prefix-list nope";
        "!";
        "router bgp 1";
        " neighbor 1.0.0.2 remote-as 2";
        " neighbor 1.0.0.2 route-map missing-map in";
        "";
      ]
  in
  let ir, _ = Cisco.Parser.parse text in
  let lints = Cisco.Lint.check ir in
  check bool_t "dangling prefix list" true
    (diag_with ~sub:"undefined prefix-list nope" lints);
  check bool_t "dangling route map" true
    (diag_with ~sub:"undefined route-map missing-map" lints);
  check bool_t "unattached map" true
    (diag_with ~sub:"route-map m is defined but not attached" lints)

(* Stanza and list bookkeeping the parser's indexes must keep. *)

let lines l = String.concat "\n" l ^ "\n"

let test_cisco_duplicate_stanza () =
  let text =
    lines
      [
        "route-map M permit 10";
        " set metric 1";
        "route-map N permit 10";
        "route-map M deny 10";
        " set metric 2";
        "route-map M permit 20";
      ]
  in
  let ir, diags = Cisco.Parser.parse text in
  (* The duplicate's body is outside any stanza: it is flagged, and does
     not reach the first stanza. *)
  (match diags with
  | [ { Diag.line = 4; severity = Diag.Error; message }; { Diag.line = 5; _ } ] ->
      check string_t "message" "duplicate route-map stanza M 10" message
  | _ ->
      Alcotest.failf "expected errors on lines 4 and 5, got:\n%s"
        (String.concat "\n" (List.map Diag.to_string diags)));
  let m = Option.get (Config_ir.find_route_map ir "M") in
  match m.Route_map.entries with
  | [ e10; e20 ] ->
      check bool_t "first stanza kept" true (e10.Route_map.action = Action.Permit);
      check bool_t "its sets untouched" true (e10.Route_map.sets = [ Route_map.Set_med 1 ]);
      check int_t "later stanza" 20 e20.Route_map.seq
  | _ -> Alcotest.fail "expected stanzas 10 and 20"

let test_cisco_interleaved_route_maps () =
  let text =
    lines
      [
        "route-map B permit 30";
        " set metric 3";
        "route-map A permit 20";
        " match tag 2";
        "route-map B deny 10";
        " match tag 1";
        "route-map A permit 5";
        "route-map C permit 10";
        "route-map B permit 20";
        " set local-preference 7";
      ]
  in
  let ir, diags = Cisco.Parser.parse text in
  check int_t "no diagnostics" 0 (List.length diags);
  check (Alcotest.list string_t) "maps in first-appearance order" [ "B"; "A"; "C" ]
    (List.map (fun (m : Route_map.t) -> m.Route_map.name) ir.Config_ir.route_maps);
  let seqs name =
    List.map
      (fun (e : Route_map.entry) -> e.Route_map.seq)
      (Option.get (Config_ir.find_route_map ir name)).Route_map.entries
  in
  check (Alcotest.list int_t) "B stanzas" [ 10; 20; 30 ] (seqs "B");
  check (Alcotest.list int_t) "A stanzas" [ 5; 20 ] (seqs "A");
  let b = Option.get (Config_ir.find_route_map ir "B") in
  check bool_t "each stanza keeps its own lines" true
    (List.map (fun (e : Route_map.entry) -> (e.Route_map.matches, e.Route_map.sets)) b.Route_map.entries
    = [
        ([ Route_map.Match_tag 1 ], []);
        ([], [ Route_map.Set_local_pref 7 ]);
        ([], [ Route_map.Set_med 3 ]);
      ])

let test_cisco_stanza_lines_in_order () =
  let text =
    lines
      [
        "route-map M permit 10";
        " match ip address prefix-list P";
        " set metric 5";
        " match community CL";
        " set local-preference 200";
        " match tag 7";
        " set community 100:1 additive";
        " set as-path prepend 1 1";
      ]
  in
  let ir, _ = Cisco.Parser.parse text in
  let e = List.hd (Option.get (Config_ir.find_route_map ir "M")).Route_map.entries in
  check bool_t "matches in order" true
    (e.Route_map.matches
    = [
        Route_map.Match_prefix_list "P";
        Route_map.Match_community_list "CL";
        Route_map.Match_tag 7;
      ]);
  check bool_t "sets in order" true
    (e.Route_map.sets
    = [
        Route_map.Set_med 5;
        Route_map.Set_local_pref 200;
        Route_map.Set_community
          { communities = [ Community.of_string_exn "100:1" ]; additive = true };
        Route_map.Set_as_path_prepend [ 1; 1 ];
      ])

let test_cisco_acl_reopened_seq () =
  let text =
    lines
      [
        "ip access-list extended A";
        " permit ip any any";
        " deny tcp any any eq 99999";
        " deny tcp any any eq 22";
        "ip access-list extended B";
        " permit ip any any";
        "ip access-list extended A";
        " deny ip any any";
      ]
  in
  let ir, diags = Cisco.Parser.parse text in
  check int_t "one bad port" 1 (List.length diags);
  let seqs name =
    List.map (fun (e : Acl.entry) -> e.Acl.seq) (Option.get (Config_ir.find_acl ir name)).Acl.entries
  in
  (* A rejected line takes no number; a reopened list continues its own. *)
  check (Alcotest.list int_t) "A" [ 10; 20; 30 ] (seqs "A");
  check (Alcotest.list int_t) "B" [ 10 ] (seqs "B")

(* The no-transit hub has Θ(n²) route-map stanzas; a quadratic parser took
   seconds at n = 120. *)
let test_cisco_hub_round_trip () =
  List.iter
    (fun n ->
      let star = Star.make ~routers:n in
      let hub = (List.hd (Cosynth.Modularizer.plan star)).Cosynth.Modularizer.correct in
      let text = Cisco.Printer.print hub in
      let ir, diags = Cisco.Parser.parse text in
      check int_t (Printf.sprintf "n=%d no diagnostics" n) 0 (List.length diags);
      check bool_t (Printf.sprintf "n=%d same IR" n) true (Config_ir.equal hub ir);
      check bool_t (Printf.sprintf "n=%d print . parse" n) true (Cisco.Printer.print ir = text))
    [ 30; 60; 120 ]

(* ------------------------------------------------------------------ *)
(* Block-incremental parsing                                           *)
(* ------------------------------------------------------------------ *)

(* [Cisco.Parser.parse] must return exactly what the line loop returns on
   the whole text, compared as (IR, diagnostics): once with one table warm
   across all [texts], as in a long-lived process, and once cold per text.
   Every block left in the table must then equal a fresh parse. *)
let check_blocks what texts =
  let differs i mode =
    Alcotest.failf "%s, text %d (%s): block parse differs from the whole-text parse:\n%s" what i
      mode (List.nth texts i)
  in
  Cisco.Parser.reset_cache ();
  List.iteri
    (fun i t -> if Cisco.Parser.parse t <> Cisco.Parser.parse_whole t then differs i "warm")
    texts;
  (match Cisco.Parser.audit_cache () with
  | Ok n -> check bool_t (what ^ ": blocks audited") true (n > 0 || texts = [])
  | Error line -> Alcotest.failf "%s: stale cached block starting %S" what line);
  List.iteri
    (fun i t ->
      Cisco.Parser.reset_cache ();
      if Cisco.Parser.parse t <> Cisco.Parser.parse_whole t then differs i "cold")
    texts

let test_blocks_samples () =
  check_blocks "samples"
    [ Cisco.Samples.border_router; Cisco.Samples.minimal; Cisco.Samples.edge_router ]

let plan_routers n =
  List.map
    (fun (t : Cosynth.Modularizer.router_task) -> t.Cosynth.Modularizer.correct)
    (Cosynth.Modularizer.plan (Star.make ~routers:n))

let test_blocks_plan_routers () =
  check_blocks "plan routers"
    (List.concat_map
       (fun n -> List.map (fun c -> Cisco.Printer.print c) (plan_routers n))
       (List.init 15 (fun i -> i + 2) @ [ 30; 60 ]))

(* Every draft of a few correction rounds of faulty chats: all routers at
   n = 7, the hub at n = 30 and 60. *)
let test_blocks_faulty_drafts () =
  let iips = Cosynth.Iip.ids Cosynth.Iip.defaults in
  let drafts correct seed =
    let chat = Llmsim.Chat.start ~seed ~iips Llmsim.Fault.Cisco_cfg ~correct in
    let rec rounds k acc =
      let acc = Llmsim.Chat.draft chat :: acc in
      match Llmsim.Chat.live_faults chat with
      | [] -> acc
      | live when k < 5 ->
          Llmsim.Chat.respond chat
            (Llmsim.Chat.auto_prompt (List.nth live (k mod List.length live)));
          rounds (k + 1) acc
      | _ -> acc
    in
    List.rev (rounds 0 [])
  in
  let configs = plan_routers 7 @ [ List.hd (plan_routers 30); List.hd (plan_routers 60) ] in
  check_blocks "faulty drafts"
    (List.concat_map (fun c -> List.concat_map (drafts c) [ 1; 2; 3; 4 ]) configs)

(* Texts whose blocks share state, and the corners of the block split. *)
let planted =
  let without_bangs text =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "!")
    |> String.concat "\n"
  in
  [
    ( "duplicate stanza",
      lines
        [
          "route-map M permit 10";
          " set metric 1";
          "!";
          "route-map M permit 10";
          " set metric 2";
          "!";
        ] );
    ( "one map across blocks",
      lines
        [
          "route-map M permit 10";
          " set metric 1";
          "!";
          "route-map N deny 10";
          "!";
          "route-map M deny 20";
          " match tag 3";
          "!";
        ] );
    ( "reopened interface",
      lines
        [
          "interface Ethernet0/0";
          " ip address 10.0.0.1 255.255.255.0";
          "!";
          "interface Ethernet0/0";
          " description again";
          " ip access-group A in";
          "!";
        ] );
    ( "reopened ACL",
      lines
        [
          "ip access-list extended A";
          " permit ip any any";
          "!";
          "ip access-list extended B";
          " permit ip any any";
          "!";
          "ip access-list extended A";
          " deny ip any any";
          "!";
        ] );
    ( "second router bgp",
      lines
        [
          "router bgp 1";
          " neighbor 1.1.1.1 remote-as 2";
          "!";
          "router bgp 5";
          " bgp router-id 9.9.9.9";
          " neighbor 1.1.1.1 route-map X out";
          " neighbor 2.2.2.2 send-community";
          "!";
        ] );
    ( "second router ospf",
      lines
        [
          "router ospf 1";
          " passive-interface Ethernet0/1";
          "!";
          "router ospf 2";
          " router-id 1.1.1.1";
          " passive-interface Ethernet0/1";
          "!";
          "interface Ethernet0/1";
          " ip ospf cost 7";
          "!";
        ] );
    ( "neighbor after !",
      lines
        [
          "router bgp 1";
          " neighbor 1.1.1.1 remote-as 2";
          "!";
          " neighbor 1.1.1.1 route-map X out";
          "neighbor 1.1.1.1 send-community";
          "!";
        ] );
    ("no !", without_bangs Cisco.Samples.border_router);
    ( "tab-indented lines",
      lines
        [
          "interface Ethernet0/0";
          "\tip address 10.0.0.1 255.255.255.0";
          "!";
          "route-map M permit 10";
          "\tset metric 5";
          "\t!";
          "\tset metric 6";
          "!";
        ] );
    ("no final newline", "hostname a\n!\nrouter bgp 1\n neighbor 1.1.1.1 remote-as 2");
    ("two hostnames", lines [ "hostname a"; "!"; "hostname b"; "!"; "!"; "hostname"; "!" ]);
    ( "! lines of every shape",
      "hostname a\r\n!\r\nroute-map M permit 10\r\n set metric 1\r\n  ! note\n\t!\nx ! y\n!!\n\
       \x0c!\n" );
    ("only ! lines", "!\n!\n\n!");
    ("empty", "");
  ]

let test_blocks_planted () = check_blocks "planted" (List.map snd planted)

(* Each diagnostic keeps the line number it has in the whole text. *)
let test_blocks_diag_lines () =
  let text =
    lines
      [
        "hostname r"; "!"; "interface Ethernet0/0"; " ip address 1.2.3.4 255.0.255.0"; "!"; "";
        "bogus statement"; "!"; "route-map M permit 10"; " match community 100:1"; "!";
        "router bgp 1"; " neighbor 1.1.1.1 route-map M out";
      ]
  in
  Cisco.Parser.reset_cache ();
  List.iter
    (fun mode ->
      let _, diags = Cisco.Parser.parse text in
      check (Alcotest.list int_t) (mode ^ ": diagnostic lines") [ 4; 7; 10; 0 ]
        (List.map (fun (d : Diag.t) -> d.Diag.line) diags))
    [ "cold"; "warm" ]

(* The golden run settings (plain, adversary, trust, chaos) on all three
   use cases, from cold caches: every block they leave in the table must
   equal a fresh parse. *)
let test_blocks_audit_golden () =
  Exec.Memo.reset ();
  Cisco.Parser.reset_cache ();
  List.iter
    (fun (_, resilience, adversary, trust) ->
      List.iter
        (fun seed ->
          ignore
            (Cosynth.Driver.run_translation ~seed ?resilience ?adversary ?trust
               ~cisco_text:Cisco.Samples.border_router ());
          ignore (Cosynth.Driver.run_no_transit ~seed ?resilience ?adversary ?trust ~routers:7 ());
          ignore (Cosynth.Driver.run_incremental ~seed ?resilience ?adversary ?trust ~routers:5 ()))
        [ 1; 2; 3 ])
    Run_settings.all;
  match Cisco.Parser.audit_cache () with
  | Ok n -> check bool_t "blocks audited" true (n > 0)
  | Error line -> Alcotest.failf "stale cached block starting %S" line

(* Random sequences of blocks, some sharing state, joined by '!' lines of
   several shapes or by nothing (which merges two blocks into one). *)
let prop_blocks_random_sequences =
  let fragments =
    [
      "hostname a";
      "hostname b";
      "interface Ethernet0/0\n ip address 10.0.0.1 255.255.255.0";
      "interface Ethernet0/0\n ip ospf cost 3\n shutdown";
      "interface Ethernet0/1\n ip address 10.0.1.1 255.255.255.0\n ip access-group A out";
      "ip access-list extended A\n permit tcp any any eq 22\n deny ip any any";
      "ip access-list extended A\n permit udp any host 1.2.3.4";
      "ip prefix-list P seq 5 permit 10.0.0.0/8 le 24";
      "ip prefix-list P seq 5 deny 0.0.0.0/0";
      "ip community-list standard CL permit 100:1";
      "route-map M permit 10\n match community CL\n set metric 5";
      "route-map M deny 20\n match ip address prefix-list P";
      "route-map M permit 10";
      "route-map N permit 10\n set local-preference 200";
      "router bgp 1\n bgp router-id 1.1.1.1\n neighbor 1.1.1.2 remote-as 2\n\
      \ neighbor 1.1.1.2 route-map M out";
      "router bgp 1\n neighbor 1.1.1.3 send-community";
      " neighbor 1.1.1.2 route-map N in";
      "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n passive-interface Ethernet0/1";
      "router ospf 1\n redistribute bgp 1 route-map M";
      " set metric 9";
      "ip route 0.0.0.0 0.0.0.0 10.0.0.2";
      "configure terminal";
      "";
    ]
  in
  let separators = [ "\n!\n"; "\n  !\n"; "\n! comment\n"; "\n"; "\n\n!\n\n" ] in
  let gen =
    QCheck2.Gen.(list_size (int_range 1 10) (pair (oneofl fragments) (oneofl separators)))
  in
  QCheck2.Test.make ~name:"cisco block parse equals the line loop on random block sequences"
    ~count:500 gen (fun parts ->
      let text = String.concat "" (List.map (fun (f, sep) -> f ^ sep) parts) in
      Cisco.Parser.parse text = Cisco.Parser.parse_whole text)

(* ------------------------------------------------------------------ *)
(* Junos                                                               *)
(* ------------------------------------------------------------------ *)

let junos_ir_of_border = Juniper.Translate.of_cisco_ir border_ir
let junos_text = Juniper.Printer.print junos_ir_of_border
let junos_reparsed, junos_diags = Juniper.Parser.parse junos_text

let test_junos_prints_and_parses_clean () =
  if junos_diags <> [] then
    Alcotest.failf "unexpected diagnostics:\n%s"
      (String.concat "\n" (List.map Diag.to_string junos_diags))

let test_junos_structure () =
  check string_t "hostname" "border1" junos_reparsed.Config_ir.hostname;
  check int_t "interfaces" 3 (List.length junos_reparsed.Config_ir.interfaces);
  let b = Option.get junos_reparsed.Config_ir.bgp in
  check int_t "asn" 65001 b.Config_ir.asn;
  check int_t "neighbors" 2 (List.length b.Config_ir.neighbors);
  check bool_t "network announced" true
    (List.exists (Prefix.equal (pfx "1.2.3.0/24")) b.Config_ir.networks);
  let n = Option.get (Config_ir.find_neighbor b (ip "2.3.4.5")) in
  check bool_t "local-as" true (n.Config_ir.local_as = Some 65001)

let test_junos_ospf_translation () =
  let o = Option.get junos_reparsed.Config_ir.ospf in
  (* Ethernet0/1 (2.3.4.1) is covered by no OSPF network statement. *)
  check int_t "two ospf interfaces" 2 (List.length o.Config_ir.interfaces);
  let lo =
    List.find (fun (oi : Config_ir.ospf_interface) -> Iface.is_loopback oi.iface)
      o.Config_ir.interfaces
  in
  check bool_t "loopback metric explicit 1" true (lo.Config_ir.cost = Some 1);
  check bool_t "loopback passive" true lo.Config_ir.passive;
  let eth =
    List.find (fun (oi : Config_ir.ospf_interface) -> not (Iface.is_loopback oi.iface))
      o.Config_ir.interfaces
  in
  check bool_t "ethernet metric uses cisco default" true (eth.Config_ir.cost = Some 10)

let test_junos_import_policy_equivalent () =
  (* The translated from_customer must behave exactly like the Cisco one —
     including the ge/le prefix ranges compiled into route-filters. *)
  let env_a = Eval.env_of_config border_ir in
  let env_b = Eval.env_of_config junos_reparsed in
  let m_a = Option.get (Config_ir.find_route_map border_ir "from_customer") in
  let m_b = Option.get (Config_ir.find_route_map junos_reparsed "from_customer") in
  check bool_t "semantically equivalent" true
    (Symbolic.Policy_diff.equivalent ~env_a ~env_b m_a m_b)

let test_junos_export_policy_scoped () =
  (* After folding redistribution, the junos to_provider must accept the
     ospf routes ospf_to_bgp admits and still deny other ospf routes. *)
  let env = Eval.env_of_config junos_reparsed in
  let m = Option.get (Config_ir.find_route_map junos_reparsed "to_provider") in
  let ospf_route p =
    Route.make ~source:Route.Ospf (pfx p)
  in
  (match Eval.eval env m (ospf_route "1.2.3.0/24") with
  | Eval.Permitted _ -> ()
  | Eval.Denied -> Alcotest.fail "redistributed ospf route should be accepted");
  check bool_t "other ospf routes rejected" true
    (Eval.eval env m (ospf_route "9.9.9.0/24") = Eval.Denied);
  (* And bgp routes keep the original behaviour: our-networks get MED 50. *)
  match Eval.eval env m (Route.make (pfx "1.2.3.0/25")) with
  | Eval.Permitted r -> check int_t "med set" 50 r.Route.med
  | Eval.Denied -> Alcotest.fail "bgp route should be accepted"

let test_junos_round_trip_stable () =
  (* print . parse . print is a fixpoint. *)
  let text2 = Juniper.Printer.print junos_reparsed in
  let reparsed2, diags2 = Juniper.Parser.parse text2 in
  check int_t "no diagnostics" 0 (List.length diags2);
  check bool_t "stable" true (Config_ir.equal junos_reparsed reparsed2)

let test_junos_missing_local_as_warning () =
  (* Strip the autonomous-system statement and all local-as lines: the
     parser must produce the Table 2 "missing local AS" warning. *)
  let lines = String.split_on_char '\n' junos_text in
  let stripped =
    List.filter
      (fun l ->
        not (contains ~sub:"autonomous-system" l || contains ~sub:"local-as" l))
      lines
    |> String.concat "\n"
  in
  let _, diags = Juniper.Parser.parse stripped in
  check bool_t "warns about local AS" true (diag_with ~sub:"no local AS" diags)

let test_junos_invalid_prefix_range_shorthand () =
  let text =
    String.concat "\n"
      [
        "policy-options {";
        "    prefix-list our-networks {";
        "        1.2.3.0/24-32;";
        "    }";
        "}";
        "";
      ]
  in
  let _, diags = Juniper.Parser.parse text in
  check bool_t "targeted error" true
    (diag_with ~sub:"not valid Juniper syntax" diags)

let test_junos_term_without_action () =
  let text =
    String.concat "\n"
      [
        "policy-options {";
        "    policy-statement p {";
        "        term t10 {";
        "            then {";
        "                metric 5;";
        "            }";
        "        }";
        "    }";
        "}";
        "";
      ]
  in
  let _, diags = Juniper.Parser.parse text in
  check bool_t "warns no accept/reject" true (diag_with ~sub:"no accept/reject" diags)

let test_junos_route_filter_ranges () =
  let l =
    Prefix_list.make "l"
      [
        Prefix_list.entry 5 (Prefix_range.make (pfx "1.2.3.0/24") ~ge:25 ~le:30);
        Prefix_list.entry ~action:Action.Deny 10 (Prefix_range.exact (pfx "2.0.0.0/8"));
        Prefix_list.entry 15 (Prefix_range.orlonger (pfx "2.0.0.0/8"));
      ]
  in
  let filters = Juniper.Printer.route_filters_of_prefix_list l in
  check bool_t "has prefix-length-range" true
    (List.exists (fun (p, m) -> p = "1.2.3.0/24" && m = "prefix-length-range /25-/30") filters);
  (* The deny carve-out of 2.0.0.0/8 exact must be honoured. *)
  check bool_t "no exact 2.0.0.0/8" true
    (List.for_all (fun (p, m) -> not (p = "2.0.0.0/8" && (m = "orlonger" || m = "exact"))) filters)

let test_junos_unbalanced_braces () =
  let _, diags = Juniper.Parser.parse "system {\n host-name r1;\n" in
  check bool_t "reports something" true (diags <> [])

(* ------------------------------------------------------------------ *)
(* The larger edge-router sample                                       *)
(* ------------------------------------------------------------------ *)

let edge_ir, edge_diags = Cisco.Parser.parse Cisco.Samples.edge_router

let test_edge_parses_clean () =
  check int_t "no diagnostics" 0 (List.length edge_diags);
  check int_t "lint clean" 0 (List.length (Cisco.Lint.check edge_ir));
  let b = Option.get edge_ir.Config_ir.bgp in
  check int_t "three neighbors" 3 (List.length b.Config_ir.neighbors);
  check int_t "one static" 1 (List.length edge_ir.Config_ir.statics);
  check int_t "one as-path list" 1 (List.length edge_ir.Config_ir.as_path_lists);
  check int_t "one acl" 1 (List.length edge_ir.Config_ir.acls)

let test_edge_round_trip () =
  let reparsed, diags = Cisco.Parser.parse (Cisco.Printer.print edge_ir) in
  check int_t "no diagnostics" 0 (List.length diags);
  check bool_t "round trip" true (Config_ir.equal edge_ir reparsed)

let test_edge_translation_clean () =
  let junos_text = Juniper.Printer.print (Juniper.Translate.of_cisco_ir edge_ir) in
  let translation, diags = Juniper.Parser.parse junos_text in
  check int_t "parses clean" 0 (List.length diags);
  let findings = Campion.Differ.compare ~original:edge_ir ~translation in
  if findings <> [] then
    Alcotest.failf "unexpected findings:\n%s"
      (String.concat "\n" (List.map Campion.Differ.finding_to_string findings))

let test_edge_translation_loop_converges () =
  List.iter
    (fun seed ->
      let r =
        Cosynth.Driver.run_translation ~seed ~cisco_text:Cisco.Samples.edge_router ()
      in
      check bool_t (Printf.sprintf "seed %d verified" seed) true r.Cosynth.Driver.verified)
    [ 31; 32; 33 ]

(* ------------------------------------------------------------------ *)
(* Cross-dialect property                                              *)
(* ------------------------------------------------------------------ *)

let range_gen =
  let open QCheck2.Gen in
  oneofl [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "192.168.0.0/16"; "0.0.0.0/0" ]
  >>= fun base ->
  let base = pfx base in
  int_range (Prefix.len base) 32 >>= fun ge ->
  int_range ge 32 >>= fun le ->
  bool >>= fun permit ->
  return
    (Prefix_list.entry
       ~action:(if permit then Action.Permit else Action.Deny)
       0 (Prefix_range.make base ~ge ~le))

let prefix_list_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 4) range_gen >>= fun entries ->
  let entries = List.mapi (fun i (e : Prefix_list.entry) -> { e with Prefix_list.seq = (i + 1) * 5 }) entries in
  return (Prefix_list.make "gen" entries)

let prop_route_filters_preserve_semantics =
  (* The Junos route-filter compilation of any prefix list matches exactly
     the prefixes the list permits. *)
  QCheck2.Test.make ~name:"route-filter compilation preserves prefix list semantics"
    ~count:200
    QCheck2.Gen.(
      pair prefix_list_gen
        (oneofl
           [
             "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "10.1.2.128/25";
             "192.168.0.0/16"; "192.168.1.0/24"; "0.0.0.0/0"; "10.1.2.3/32";
           ]))
    (fun (l, q) ->
      let q = pfx q in
      let filters = Juniper.Printer.route_filters_of_prefix_list l in
      let ranges =
        List.map
          (fun (p, m) ->
            let base = pfx p in
            match String.split_on_char ' ' m with
            | [ "exact" ] -> Prefix_range.exact base
            | [ "orlonger" ] -> Prefix_range.orlonger base
            | [ "upto"; n ] ->
                Prefix_range.le base
                  (int_of_string (String.sub n 1 (String.length n - 1)))
            | [ "prefix-length-range"; r ] -> (
                match String.split_on_char '-' r with
                | [ a; b ] ->
                    Prefix_range.make base
                      ~ge:(int_of_string (String.sub a 1 (String.length a - 1)))
                      ~le:(int_of_string (String.sub b 1 (String.length b - 1)))
                | _ -> assert false)
            | _ -> assert false)
          filters
      in
      let junos_matches = List.exists (fun r -> Prefix_range.matches r q) ranges in
      junos_matches = Prefix_list.matches l q)

let prop_cisco_round_trip_route_maps =
  (* Printing then parsing a config containing a random route map is the
     identity on the IR. *)
  let comm = Community.of_string_exn in
  let match_gen =
    QCheck2.Gen.oneofl
      [
        Route_map.Match_prefix_list "pl";
        Route_map.Match_community_list "cl";
        Route_map.Match_as_path "al";
        Route_map.Match_source_protocol Route.Ospf;
        Route_map.Match_med 7;
      ]
  in
  let set_gen =
    QCheck2.Gen.oneofl
      [
        Route_map.Set_med 50;
        Route_map.Set_local_pref 200;
        Route_map.Set_community { communities = [ comm "100:1" ]; additive = true };
        Route_map.Set_community { communities = [ comm "100:1"; comm "101:1" ]; additive = false };
        Route_map.Set_community_delete "cl";
        Route_map.Set_next_hop (ip "9.9.9.9");
        Route_map.Set_as_path_prepend [ 1; 1 ];
      ]
  in
  let entry_gen =
    let open QCheck2.Gen in
    bool >>= fun permit ->
    list_size (int_bound 2) match_gen >>= fun matches ->
    list_size (int_bound 2) set_gen >>= fun sets ->
    return (fun seq ->
        Route_map.entry
          ~action:(if permit then Action.Permit else Action.Deny)
          ~matches ~sets seq)
  in
  let config_gen =
    let open QCheck2.Gen in
    list_size (int_range 1 3) entry_gen >>= fun mk_entries ->
    let entries = List.mapi (fun i mk -> mk ((i + 1) * 10)) mk_entries in
    let base = Config_ir.empty "r" in
    return
      {
        base with
        Config_ir.prefix_lists =
          [ Prefix_list.make "pl" [ Prefix_list.entry 5 (Prefix_range.exact (pfx "1.2.3.0/24")) ] ];
        community_lists = [ Community_list.make "cl" [ Community_list.entry [ comm "100:1" ] ] ];
        as_path_lists = [ As_path_list.make "al" [ As_path_list.entry "^1_" ] ];
        route_maps = [ Route_map.make "m" entries ];
      }
  in
  QCheck2.Test.make ~name:"cisco print/parse round trip on random route maps" ~count:200
    config_gen (fun cfg ->
      let printed = Cisco.Printer.print cfg in
      let reparsed, diags = Cisco.Parser.parse printed in
      diags = [] && Config_ir.equal cfg reparsed)

let prop_junos_print_parse_fixpoint =
  (* For any IR built from the shared generator, printing as Junos and
     parsing back reaches a fixpoint after one round and never yields
     diagnostics. (Ranged prefix lists are renamed into synthesized
     route-filter lists on the first round, hence fixpoint rather than
     identity.) *)
  let comm = Community.of_string_exn in
  let match_gen =
    QCheck2.Gen.oneofl
      [
        Route_map.Match_prefix_list "pl";
        Route_map.Match_prefix_list "ranged";
        Route_map.Match_community_list "cl";
        Route_map.Match_source_protocol Route.Bgp;
        Route_map.Match_med 7;
      ]
  in
  let set_gen =
    QCheck2.Gen.oneofl
      [
        Route_map.Set_med 50;
        Route_map.Set_local_pref 200;
        Route_map.Set_community { communities = [ comm "100:1" ]; additive = true };
        Route_map.Set_community { communities = [ comm "100:1" ]; additive = false };
        Route_map.Set_next_hop (ip "9.9.9.9");
        Route_map.Set_as_path_prepend [ 1; 1 ];
      ]
  in
  let entry_gen =
    let open QCheck2.Gen in
    bool >>= fun permit ->
    list_size (int_bound 2) match_gen >>= fun matches ->
    list_size (int_bound 2) set_gen >>= fun sets ->
    return (fun seq ->
        Route_map.entry
          ~action:(if permit then Action.Permit else Action.Deny)
          ~matches ~sets seq)
  in
  let config_gen =
    let open QCheck2.Gen in
    list_size (int_range 1 3) entry_gen >>= fun mk_entries ->
    let entries = List.mapi (fun i mk -> mk ((i + 1) * 10)) mk_entries in
    let base = Config_ir.empty "r" in
    return
      {
        base with
        Config_ir.prefix_lists =
          [
            Prefix_list.make "pl" [ Prefix_list.entry 5 (Prefix_range.exact (pfx "1.2.3.0/24")) ];
            Prefix_list.make "ranged"
              [ Prefix_list.entry 5 (Prefix_range.make (pfx "10.0.0.0/8") ~ge:16 ~le:24) ];
          ];
        community_lists = [ Community_list.make "cl" [ Community_list.entry [ comm "100:1" ] ] ];
        route_maps = [ Route_map.make "m" entries ];
        bgp =
          Some
            {
              Config_ir.asn = 1;
              router_id = Some (ip "1.1.1.1");
              networks = [ pfx "1.2.3.0/24" ];
              neighbors =
                [
                  Config_ir.neighbor ~local_as:1 ~import_policy:"m" (ip "2.3.4.5")
                    ~remote_as:2;
                ];
              redistributions = [];
            };
      }
  in
  QCheck2.Test.make ~name:"junos print/parse reaches a clean fixpoint" ~count:150
    config_gen (fun cfg ->
      let a, d1 = Juniper.Parser.parse (Juniper.Printer.print cfg) in
      let b, d2 = Juniper.Parser.parse (Juniper.Printer.print a) in
      d1 = [] && d2 = [] && Config_ir.equal a b)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_route_filters_preserve_semantics;
      prop_cisco_round_trip_route_maps;
      prop_junos_print_parse_fixpoint;
      prop_blocks_random_sequences;
    ]

let () =
  Alcotest.run "dialects"
    [
      ( "cisco-parse",
        [
          Alcotest.test_case "reference config parses clean" `Quick test_cisco_parses_clean;
          Alcotest.test_case "bgp block" `Quick test_cisco_bgp_block;
          Alcotest.test_case "ospf block" `Quick test_cisco_ospf_block;
          Alcotest.test_case "prefix list ge" `Quick test_cisco_prefix_list_ge;
          Alcotest.test_case "round trip" `Quick test_cisco_round_trip;
          Alcotest.test_case "lint clean" `Quick test_cisco_lint_clean;
        ] );
      ( "cisco-diagnostics",
        [
          Alcotest.test_case "match community literal" `Quick
            test_cisco_match_community_literal;
          Alcotest.test_case "cli keywords" `Quick test_cisco_cli_keyword;
          Alcotest.test_case "misplaced neighbor" `Quick test_cisco_misplaced_neighbor;
          Alcotest.test_case "community list regex" `Quick test_cisco_community_list_regex;
          Alcotest.test_case "prefix list missing seq" `Quick
            test_cisco_prefix_list_missing_seq;
          Alcotest.test_case "neighbor without remote-as" `Quick
            test_cisco_neighbor_without_remote_as;
          Alcotest.test_case "set community replaces by default" `Quick
            test_cisco_set_community_default_replaces;
          Alcotest.test_case "lint dangling refs" `Quick test_cisco_lint_dangling;
        ] );
      ( "cisco-index",
        [
          Alcotest.test_case "duplicate stanza" `Quick test_cisco_duplicate_stanza;
          Alcotest.test_case "interleaved route-maps" `Quick test_cisco_interleaved_route_maps;
          Alcotest.test_case "stanza lines in order" `Quick test_cisco_stanza_lines_in_order;
          Alcotest.test_case "reopened ACL numbering" `Quick test_cisco_acl_reopened_seq;
          Alcotest.test_case "hub print . parse at 30/60/120" `Quick test_cisco_hub_round_trip;
        ] );
      ( "cisco-blocks",
        [
          Alcotest.test_case "samples" `Quick test_blocks_samples;
          Alcotest.test_case "plan routers at 2..16, 30, 60" `Quick test_blocks_plan_routers;
          Alcotest.test_case "faulty drafts" `Quick test_blocks_faulty_drafts;
          Alcotest.test_case "planted cross-block cases" `Quick test_blocks_planted;
          Alcotest.test_case "diagnostic line numbers" `Quick test_blocks_diag_lines;
          Alcotest.test_case "audit after the golden settings" `Quick test_blocks_audit_golden;
        ] );
      ( "junos",
        [
          Alcotest.test_case "translation prints and parses clean" `Quick
            test_junos_prints_and_parses_clean;
          Alcotest.test_case "structure" `Quick test_junos_structure;
          Alcotest.test_case "ospf translation" `Quick test_junos_ospf_translation;
          Alcotest.test_case "import policy equivalent" `Quick
            test_junos_import_policy_equivalent;
          Alcotest.test_case "export policy scoped" `Quick test_junos_export_policy_scoped;
          Alcotest.test_case "round trip stable" `Quick test_junos_round_trip_stable;
          Alcotest.test_case "missing local-as warning" `Quick
            test_junos_missing_local_as_warning;
          Alcotest.test_case "invalid range shorthand" `Quick
            test_junos_invalid_prefix_range_shorthand;
          Alcotest.test_case "term without action" `Quick test_junos_term_without_action;
          Alcotest.test_case "route-filter ranges" `Quick test_junos_route_filter_ranges;
          Alcotest.test_case "unbalanced braces" `Quick test_junos_unbalanced_braces;
        ] );
      ( "edge-router",
        [
          Alcotest.test_case "parses clean" `Quick test_edge_parses_clean;
          Alcotest.test_case "round trip" `Quick test_edge_round_trip;
          Alcotest.test_case "translation clean" `Quick test_edge_translation_clean;
          Alcotest.test_case "translation loop converges" `Slow
            test_edge_translation_loop_converges;
        ] );
      ("properties", props);
    ]
