open Netcore
open Policy

let regex_ok regex =
  match As_path_list.matches (As_path_list.make "t" [ As_path_list.entry regex ]) As_path.empty with
  | (_ : bool) -> true
  | exception Invalid_argument _ -> false

let check (c : Config_ir.t) =
  let diags = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> diags := Diag.warning s :: !diags) fmt in
  List.iter (fun missing -> warn "reference to undefined %s" missing)
    (Config_ir.undefined_references c);
  (match c.bgp with
  | None -> ()
  | Some b ->
      List.iter
        (fun (n : Config_ir.neighbor) ->
          if n.remote_as <= 0 then
            warn "neighbor %s has no remote-as" (Ipv4.to_string n.addr))
        b.neighbors;
      if c.interfaces <> [] then
        let connected = Config_ir.connected_prefixes c in
        List.iter
          (fun net ->
            if not (List.exists (fun p -> Prefix.equal p net) connected) then
              warn "network %s is declared under router bgp but no interface is \
                    addressed in it"
                (Prefix.to_string net))
          b.networks);
  (* Route maps defined but attached nowhere are suspicious in generated
     configs (usually a mis-typed attachment). *)
  let attached =
    (match c.bgp with
    | None -> []
    | Some b ->
        List.concat_map
          (fun (n : Config_ir.neighbor) ->
            Option.to_list n.import_policy @ Option.to_list n.export_policy)
          b.neighbors
        @ List.filter_map (fun (r : Config_ir.redistribution) -> r.policy) b.redistributions)
    @
    match c.ospf with
    | None -> []
    | Some o -> List.filter_map (fun (r : Config_ir.redistribution) -> r.policy) o.redistributions
  in
  let is_attached = Hashtbl.create 64 in
  List.iter (fun name -> Hashtbl.replace is_attached name ()) attached;
  List.iter
    (fun (m : Route_map.t) ->
      if not (Hashtbl.mem is_attached m.name) then
        warn "route-map %s is defined but not attached to any neighbor or \
              redistribution"
          m.name)
    c.route_maps;
  List.iter
    (fun (l : As_path_list.t) ->
      List.iter
        (fun (e : As_path_list.entry) ->
          if not (regex_ok e.regex) then
            warn "as-path access-list %s: invalid regular expression '%s'" l.name e.regex)
        l.entries)
    c.as_path_lists;
  List.rev !diags
