(* One typed cross-reference index over the build tree, and the export
   and knob rules it gates.

   Every value a [lib] interface exports should have a caller in
   production code; an export nobody calls is surface (and, in a trusted
   component, TCB lines) that only exists to be maintained. The index
   is derived from the typed trees dune already writes ([.cmti] for what
   each [lib] interface exports, [.cmt] for every implementation's
   references), so "who calls what" comes from the compiler, not a
   hand-kept list or a grep that misses [open]. Likewise every optional
   parameter should take more than one value: one no call supplies is a
   constant, and one every production call supplies has a default that
   never runs there.

   Names are resolved the way the type checker left them:
   - a dune wrapped library's alias module ([cio_tls.ml-gen]: [module
     Session = Cio_tls__Session]) is read like any other unit, so
     [Cio_tls.Session.feed] and [Cio_tls__Session.feed] both land on
     the export [Cio_tls__Session.feed];
   - local module aliases ([module Lint = Cio_lintlib.Lint], [let module
     Trace = ... in]) are followed through their identifiers, and a
     local structure that [include]s modules ([module Keys = struct
     include Cio_tls.Keys ... end]) through each module it includes;
   - a unit's top-level modules and [include]s are followed the same way
     from other units, so an executable's [Dune__exe.Helpers] or a
     re-export such as [Cio_lintlib.Json_lite] resolve too.

   Reading ([read]) is the only I/O; [check] is a pure function of the
   index. *)

open Typedtree

type export = { x_unit : string; x_mli : string; x_value : string; x_knobs : string list }
type supply = Value | Pass_through
type use = Reference | Application of (string * supply) list
type index = (export * (string * use) list) list

(* --- reading the build tree ----------------------------------------- *)

(* A compilation unit as other units see it: what each of its top-level
   modules stands for (see [targets]) and the modules it [include]s, all
   resolved in its object directory [u_dir]. *)
type unit_info = {
  u_name : string;
  u_dir : string;
  u_modules : (string * string list list) list;
  u_includes : string list list;
}

(* Every [.cmt]/[.cmti] under [dir], dot directories included (dune's
   object directories are hidden), in path order. *)
let rec typed_files dir =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.to_list entries
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then typed_files path
         else if Filename.check_suffix entry ".cmt" || Filename.check_suffix entry ".cmti" then
           [ path ]
         else [])

let rec strip_constraint me =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip_constraint me | _ -> me

(* The path a module expression aliases, if it is one. *)
let alias_target me =
  match (strip_constraint me).mod_desc with Tmod_ident (p, _) -> Some p | _ -> None

(* A path as the component lists it may stand for, local modules
   expanded; [[]] when it starts at a local module that neither aliases
   nor includes another (its members are the file's own). *)
let rec flatten locals = function
  | Path.Pident id -> (
      match Hashtbl.find_opt locals id with
      | Some targets -> targets
      | None -> if Ident.persistent id then [ [ Ident.name id ] ] else [])
  | Path.Pdot (p, s) -> List.map (fun comps -> comps @ [ s ]) (flatten locals p)
  | _ -> []

let includes locals items =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_include { incl_mod; _ } ->
          Option.fold ~none:[] ~some:(flatten locals) (alias_target incl_mod)
      | _ -> [])
    items

(* What a module stands for: the module it aliases, or, for a
   structure, the modules it includes (one of which defines any value
   reached through it that it does not define itself). *)
let targets locals me =
  match (strip_constraint me).mod_desc with
  | Tmod_ident (p, _) -> flatten locals p
  | Tmod_structure str -> includes locals str.str_items
  | _ -> []

(* The value names of a module type: a signature's, or a module type's
   declared earlier in the same file; [[]] for any other. *)
let rec signature_names modtypes = function
  | Types.Mty_signature sg ->
      List.filter_map (function Types.Sig_value (id, _, _) -> Some (Ident.name id) | _ -> None) sg
  | Types.Mty_ident (Path.Pident id) -> (
      match Hashtbl.find_opt modtypes id with Some mty -> signature_names modtypes mty | None -> [])
  | _ -> []

(* How an argument reaches an optional parameter, if it does. The type
   checker fills an optional parameter with a constructor of its own (no
   location on the constructor's name): [Some v] for a [~x:v], [None]
   where the parameter is left out. A [?x:o] passes [o] as it is. *)
let supply arg =
  match arg.exp_desc with
  | Texp_construct ({ loc; _ }, { Types.cstr_name; _ }, _) when loc = Location.none ->
      if cstr_name = "Some" then Some Value else None
  | _ -> Some Pass_through

(* The optional parameters an application supplies. *)
let supplied args =
  List.filter_map
    (function
      | Asttypes.Optional l, Some arg -> Option.map (fun s -> (l, s)) (supply arg) | _ -> None)
    args

(* The value references of one implementation, each as the component
   lists it may stand for with how it is used, and its top-level
   modules and includes. A module packed as a first-class module
   references each value of the package's signature. *)
let scan_structure str =
  let locals = Hashtbl.create 16 and modtypes = Hashtbl.create 4 in
  let refs = ref [] in
  let add ?(use = Reference) targets = refs := (targets, use) :: !refs in
  let bind id me =
    match targets locals me with [] -> () | ts -> Hashtbl.replace locals id ts
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      structure_item =
        (fun sub item ->
          (match item.str_desc with
          | Tstr_module { mb_id = Some id; mb_expr; _ } -> bind id mb_expr
          | Tstr_modtype { mtd_id; mtd_type = Some mt; _ } ->
              Hashtbl.replace modtypes mtd_id mt.mty_type
          | _ -> ());
          Tast_iterator.default_iterator.structure_item sub item);
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
              (* the function is applied here, not referenced bare *)
              add ~use:(Application (supplied args)) (flatten locals p);
              List.iter (fun (_, arg) -> Option.iter (sub.expr sub) arg) args
          | _ ->
              (match e.exp_desc with
              | Texp_ident (p, _, _) -> add (flatten locals p)
              | Texp_letmodule (Some id, _, _, me, _) -> bind id me
              | Texp_pack me -> (
                  match (alias_target me, Types.get_desc e.exp_type) with
                  | Some p, Types.Tpackage (mty, _) ->
                      List.iter
                        (fun v -> add (flatten locals (Path.Pdot (p, v))))
                        (signature_names modtypes (Types.Mty_ident mty))
                  | _ -> ())
              | _ -> ());
              Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter.structure iter str;
  let modules =
    List.filter_map
      (fun item ->
        match item.str_desc with
        | Tstr_module { mb_id = Some id; _ } ->
            Option.map (fun ts -> (Ident.name id, ts)) (Hashtbl.find_opt locals id)
        | _ -> None)
      str.str_items
  in
  (!refs, modules, includes locals str.str_items)

(* The optional parameters of a value's declared type, in order. *)
let rec knobs ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: knobs ret
  | Types.Tarrow (_, _, ret, _) -> knobs ret
  | _ -> []

let signature_values sg =
  List.filter_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> Some (vd.val_name.txt, knobs vd.val_desc.ctyp_type)
      | _ -> None)
    sg.sig_items

let top_dir file = match String.index_opt file '/' with Some i -> String.sub file 0 i | None -> file

(* The build tree's root: [root/_build/default] from a checkout, or
   [root] itself when run inside dune's build context. *)
let build_dir root =
  let b = Filename.concat root (Filename.concat "_build" "default") in
  if Sys.file_exists b && Sys.is_directory b then b else root

let read ~root =
  let units = Hashtbl.create 256 in
  let exports = ref [] and raw = ref [] in
  List.iter
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      let dir = Filename.dirname path in
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Interface sg, Some src when top_dir src = "lib" ->
          List.iter
            (fun (v, knobs) ->
              exports :=
                { x_unit = cmt.cmt_modname; x_mli = src; x_value = v; x_knobs = knobs } :: !exports)
            (signature_values sg)
      | Cmt_format.Implementation str, Some src ->
          let refs, modules, includes = scan_structure str in
          let info =
            { u_name = cmt.cmt_modname; u_dir = dir; u_modules = modules; u_includes = includes }
          in
          Hashtbl.replace units (dir, cmt.cmt_modname) info;
          (* library unit names are unique; executables' ([Dune__exe*])
             are only unique within their object directory *)
          if top_dir src = "lib" then Hashtbl.replace units ("", cmt.cmt_modname) info;
          raw := (src, dir, refs) :: !raw
      | _ -> ())
    (typed_files (build_dir root));
  let find_unit dir name =
    match Hashtbl.find_opt units (dir, name) with
    | Some u -> Some u
    | None -> Hashtbl.find_opt units ("", name)
  in
  let known = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace known (e.x_unit, e.x_value) e) !exports;
  (* Follow a unit's modules (and, for a value the unit does not
     export, its includes) to the export a reference names. *)
  let rec resolve depth dir comps =
    if depth > 16 then None
    else
      match comps with
      | h :: (m :: rest as tl) -> (
          match find_unit dir h with
          | None -> None
          | Some u -> (
              match List.assoc_opt m u.u_modules with
              | Some targets -> List.find_map (fun t -> resolve (depth + 1) u.u_dir (t @ rest)) targets
              | None -> (
                  match Hashtbl.find_opt known (u.u_name, String.concat "." tl) with
                  | Some e -> Some e
                  | None -> List.find_map (fun inc -> resolve (depth + 1) u.u_dir (inc @ tl)) u.u_includes)))
      | _ -> None
  in
  let uses = Hashtbl.create 1024 in
  List.iter
    (fun (src, dir, refs) ->
      List.iter
        (fun (targets, use) ->
          Option.iter
            (fun e -> Hashtbl.add uses e (src, use))
            (List.find_map (resolve 0 dir) targets))
        refs)
    !raw;
  List.sort compare !exports
  |> List.map (fun e -> (e, List.sort_uniq compare (Hashtbl.find_all uses e)))

(* --- the rules (pure) ------------------------------------------------ *)

type rule = Dead_export | Test_only_export | Unset_knob | Always_set_knob

let rules = [ Dead_export; Test_only_export; Unset_knob; Always_set_knob ]

let rule_name = function
  | Dead_export -> "dead-export"
  | Test_only_export -> "test-only-export"
  | Unset_knob -> "unset-knob"
  | Always_set_knob -> "always-set-knob"

type finding = { rule : rule; export : export; knob : string option }

let core = Cio_tcb.Tcb.[ Tls; Crypto; Compartment_runtime ]
let production_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench" ]
let is_production file = List.mem (top_dir file) production_dirs
let implementation e = Filename.remove_extension e.x_mli ^ ".ml"

let in_core e =
  match Cio_tcb.Tcb.role (implementation e) with
  | Cio_tcb.Tcb.Guest c -> List.mem c core
  | _ -> false

(* Whether a use supplies knob [k]: any supply for [unset-knob], only a
   [~k:v] for [always-set-knob]. A bare reference may supply a knob, but
   it may also leave it out: where fewer optional parameters are expected
   the type checker passes [None] for the rest, so it counts like a
   pass-through. *)
let sets ~pass k = function
  | Reference -> pass
  | Application args -> (
      match List.assoc_opt k args with
      | Some Value -> true
      | Some Pass_through -> pass
      | None -> false)

let knob_findings e uses =
  let production = List.filter (fun (f, _) -> is_production f) uses in
  List.filter_map
    (fun k ->
      let finding rule = Some { rule; export = e; knob = Some k } in
      if not (List.exists (fun (_, u) -> sets ~pass:true k u) uses) then finding Unset_knob
      else if production <> [] && List.for_all (fun (_, u) -> sets ~pass:false k u) production then
        finding Always_set_knob
      else None)
    e.x_knobs

let check index =
  List.concat_map
    (fun (e, uses) ->
      let others = List.filter (fun (f, _) -> f <> implementation e) uses in
      let export_finding =
        if others = [] then [ { rule = Dead_export; export = e; knob = None } ]
        else if in_core e && not (List.exists (fun (f, _) -> is_production f) others) then
          [ { rule = Test_only_export; export = e; knob = None } ]
        else []
      in
      export_finding @ knob_findings e uses)
    index

let pp_finding ppf f =
  Format.fprintf ppf "%s: %s %s%s" f.export.x_mli (rule_name f.rule) f.export.x_value
    (match f.knob with Some k -> " ?" ^ k | None -> "")

let pp_report ppf (index, findings) =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_finding f) findings;
  let count r = List.length (List.filter (fun f -> f.rule = r) findings) in
  Format.fprintf ppf "exports: %d indexed%a@." (List.length index)
    (fun ppf -> List.iter (fun r -> Format.fprintf ppf ", %d %s" (count r) (rule_name r)))
    rules
