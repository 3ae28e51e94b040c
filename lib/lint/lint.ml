(* cio_lint: an interface-safety analyzer over this repository's own
   OCaml sources.

   The paper's Figures 3/4 taxonomize years of NetVSC/VirtIO hardening
   commits — double fetches, missing validation of device-controlled
   values, unbounded loops over device-written state — and argue these
   bugs recur because interface safety is retrofitted instead of checked
   by construction. This module encodes those hardening-commit categories
   as syntactic rules over the untyped AST ([compiler-libs.common]'s
   [Parsetree], walked directly), so the discipline the hardened driver
   and the cionet ring implement by hand is machine-checked on every
   build:

     DF  double fetch            -> Fig. 3/4 "add copies"
     UV  unvalidated value       -> Fig. 3/4 "add checks"
     UW  unbounded work          -> Fig. 3/4 "design changes"
     UC  unsafe code in the TCB  -> Fig. 3/4 "add checks"
     SI  stateless-interface drift -> Fig. 3/4 "design changes"

   The analysis is deliberately heuristic and intra-procedural: it tracks
   a per-function taint set seeded by *guest fetches of host-writable
   memory* (module-qualified [Region]/[Vring] reads performed as the
   [Guest] actor), propagates through local bindings in source order, and
   is discharged by recognized validation forms (clamps, masks, bounds
   checks, relational guards). Wrapper functions that centralize fetching
   (e.g. the cionet ring's [read_header]) are each analyzed on their own
   body; values returned from them are treated as already-confined, which
   is exactly the paper's argument for funnelling every fetch through one
   audited single-fetch helper. [driver_unhardened.ml] is the analyzer's
   living test corpus: the gate fails if it ever stops producing its
   expected findings, because that means the rules regressed, not the
   driver improved. *)

open Parsetree

(* --- rules and findings ---------------------------------------------- *)

type rule = DF | UV | UW | UC | SI

let all_rules = [ DF; UV; UW; UC; SI ]

let rule_name = function DF -> "DF" | UV -> "UV" | UW -> "UW" | UC -> "UC" | SI -> "SI"

(* Each rule's primary Figure 3/4 hardening-commit category (the class of
   retrofit commit that fixes what the rule detects). *)
let rule_category = function
  | DF -> Cio_data.Hardening.Add_copies
  | UV -> Cio_data.Hardening.Add_checks
  | UW -> Cio_data.Hardening.Design_change
  | UC -> Cio_data.Hardening.Add_checks
  | SI -> Cio_data.Hardening.Design_change

let rule_of_name = function
  | "DF" -> Some DF
  | "UV" -> Some UV
  | "UW" -> Some UW
  | "UC" -> Some UC
  | "SI" -> Some SI
  | _ -> None

type role = Trusted | Corpus | Host_model | Harness

let role_name = function
  | Trusted -> "trusted"
  | Corpus -> "corpus"
  | Host_model -> "host-model"
  | Harness -> "harness"

type finding = {
  f_rule : rule;
  f_file : string;  (* repo-relative path *)
  f_func : string;  (* enclosing top-level binding *)
  f_line : int;
  f_detail : string;
  f_role : role;
}

(* Stable identity for baseline comparison: everything except the line
   number, which drifts with unrelated edits. *)
let key f =
  Printf.sprintf "%s|%s|%s|%s" (rule_name f.f_rule) f.f_file f.f_func f.f_detail

(* --- file classification --------------------------------------------- *)

module Tcb = Cio_tcb.Tcb

(* Roles come from [Tcb.table], the one place that says which actor runs
   each file, so the lint gate and the TCB accounting cannot disagree.
   Guest files are gated. The trusting virtio driver is the analyzer's
   living test corpus: exempt from the trusted gate, protected by the
   regression side of the gate instead. Host models play the untrusted
   host and the harness is the simulated world: the guest rules do not
   apply to either, so both are skipped. *)
let classify rel =
  match Tcb.role rel with
  | Tcb.Guest Tcb.Virtio_unhardened -> Corpus
  | Tcb.Guest _ -> Trusted
  | Tcb.Host_model -> Host_model
  | Tcb.Harness -> Harness

(* --- name tables ------------------------------------------------------ *)

(* Fetches that taint unconditionally: guest-only read entry points. *)
let fetch_always = [ "Region.guest_read"; "Region.guest_read_into"; "guest_read"; "guest_read_into" ]

(* Fetches that taint only when performed as the [Guest] actor (the
   literal [Guest] constructor appears among the arguments): a host-actor
   read is the device's own access, not a guest fetch of shared state.
   [Region.copy_in] is deliberately absent — it is the sanctioned
   snapshot primitive, the *fix* for a double fetch. *)
let fetch_with_guest_actor =
  [
    "Region.read"; "Region.read_into"; "Region.read_u8"; "Region.read_u16"; "Region.read_u32";
    "Region.read_u64"; "Vring.used_idx"; "Vring.used_entry"; "Vring.read_desc"; "Vring.avail_idx";
    "Vring.avail_entry";
  ]

let unsafe_idents =
  [
    "Bytes.unsafe_get"; "Bytes.unsafe_set"; "Bytes.unsafe_blit"; "Bytes.unsafe_fill";
    "Bytes.unsafe_of_string"; "Bytes.unsafe_to_string"; "Array.unsafe_get"; "Array.unsafe_set";
    "String.unsafe_get"; "String.unsafe_blit"; "Obj.magic";
  ]

(* Recognized validation forms. A tainted variable mentioned as an
   argument of one of these is considered confined from that point on
   (matching the hardened driver's [valid_id]/clamp discipline and the
   ring's masking). *)
let sanitizer_exact = [ "min"; "max"; "land"; "lor"; "lxor"; "lsr"; "asr"; "mod"; "abs" ]

let sanitizer_substrings = [ "valid"; "check"; "mask"; "clamp"; "bound"; "confine"; "align"; "sanit" ]

let comparison_heads = [ "<"; "<="; ">"; ">=" ]

(* Sinks: index/length/offset positions where a still-tainted value is a
   spatial-safety bug. [positions] are 0-based over *positional* args. *)
type sink_spec = { positions : int list; labels : string list }

let sinks =
  [
    ("Bytes.create", { positions = [ 0 ]; labels = [] });
    ("Bytes.make", { positions = [ 0 ]; labels = [] });
    ("Bytes.sub", { positions = [ 1; 2 ]; labels = [] });
    ("Bytes.sub_string", { positions = [ 1; 2 ]; labels = [] });
    ("Bytes.blit", { positions = [ 1; 3; 4 ]; labels = [] });
    ("Bytes.blit_string", { positions = [ 1; 3; 4 ]; labels = [] });
    ("Bytes.fill", { positions = [ 1; 2 ]; labels = [] });
    ("Bytes.get", { positions = [ 1 ]; labels = [] });
    ("Bytes.set", { positions = [ 1 ]; labels = [] });
    ("Bytes.unsafe_get", { positions = [ 1 ]; labels = [] });
    ("Bytes.unsafe_set", { positions = [ 1 ]; labels = [] });
    ("String.get", { positions = [ 1 ]; labels = [] });
    ("String.sub", { positions = [ 1; 2 ]; labels = [] });
    ("Array.get", { positions = [ 1 ]; labels = [] });
    ("Array.set", { positions = [ 1 ]; labels = [] });
    ("Array.make", { positions = [ 0 ]; labels = [] });
    ("Array.sub", { positions = [ 1; 2 ]; labels = [] });
    ("Array.unsafe_get", { positions = [ 1 ]; labels = [] });
    ("Array.unsafe_set", { positions = [ 1 ]; labels = [] });
    ("Region.guest_read", { positions = []; labels = [ "off"; "len" ] });
    ("Region.host_read", { positions = []; labels = [ "off"; "len" ] });
    ("Region.read", { positions = []; labels = [ "off"; "len" ] });
    ("Region.guest_read_into", { positions = []; labels = [ "off" ] });
    ("Region.host_read_into", { positions = []; labels = [ "off" ] });
    ("Region.read_into", { positions = []; labels = [ "off" ] });
    ("Region.copy_in", { positions = []; labels = [ "off"; "len" ] });
    ("Region.copy_in_into", { positions = []; labels = [ "off" ] });
    ("Region.copy_out", { positions = []; labels = [ "off" ] });
    ("Region.guest_write", { positions = []; labels = [ "off" ] });
    ("Region.host_write", { positions = []; labels = [ "off" ] });
    ("Region.read_u8", { positions = []; labels = [ "off" ] });
    ("Region.read_u16", { positions = []; labels = [ "off" ] });
    ("Region.read_u32", { positions = []; labels = [ "off" ] });
    ("Region.read_u64", { positions = []; labels = [ "off" ] });
    ("Region.write_u8", { positions = []; labels = [ "off" ] });
    ("Region.write_u16", { positions = []; labels = [ "off" ] });
    ("Region.write_u32", { positions = []; labels = [ "off" ] });
    ("Region.write_u64", { positions = []; labels = [ "off" ] });
    ("Region.share_range", { positions = []; labels = [ "off"; "len" ] });
    ("Region.unshare_range", { positions = []; labels = [ "off"; "len" ] });
    ("Vring.read_desc", { positions = [ 2 ]; labels = [] });
    ("Vring.used_entry", { positions = [ 2 ]; labels = [] });
    ("Vring.avail_entry", { positions = [ 2 ]; labels = [] });
    ("Vring.write_desc", { positions = [ 2 ]; labels = [] });
    ("Vring.set_avail_entry", { positions = [ 2 ]; labels = [] });
    ("Vring.set_used_entry", { positions = [ 2 ]; labels = [] });
  ]

(* --- AST helpers ------------------------------------------------------ *)

let flatten_lid lid = String.concat "." (Longident.flatten lid)

(* Candidate lookup names for an identifier: fully qualified, the last
   two components (strips library prefixes like [Cio_mem.]), and the bare
   name. *)
let name_candidates name =
  let parts = String.split_on_char '.' name in
  let n = List.length parts in
  let last k =
    if n <= k then None
    else Some (String.concat "." (List.filteri (fun i _ -> i >= n - k) parts))
  in
  List.filter_map Fun.id [ Some name; last 2; last 1 ]

let head_name e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (flatten_lid txt) | _ -> None

let lookup_in table name =
  match name with
  | None -> None
  | Some n ->
      List.fold_left
        (fun acc cand -> match acc with Some _ -> acc | None -> List.assoc_opt cand table)
        None (name_candidates n)

let name_in list name =
  match name with
  | None -> false
  | Some n -> List.exists (fun cand -> List.mem cand list) (name_candidates n)

let last_component name =
  match List.rev (String.split_on_char '.' name) with [] -> name | last :: _ -> last

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let is_sanitizer_head name =
  match name with
  | None -> false
  | Some n ->
      let l = last_component n in
      List.mem l sanitizer_exact
      || List.exists (fun sub -> contains_substring ~sub l) sanitizer_substrings

let is_comparison_head name =
  match name with None -> false | Some n -> List.mem (last_component n) comparison_heads

(* All simple (unqualified) identifiers mentioned in an expression. *)
let iter_idents fn e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt = Longident.Lident v; _ } -> fn v
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e

let pattern_vars pat =
  let vars = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> vars := txt :: !vars
          | Ppat_alias (_, { txt; _ }) -> vars := txt :: !vars
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it pat;
  List.rev !vars

(* Does the application carry the literal [Guest] actor? *)
let has_guest_actor args =
  List.exists
    (fun (_, a) ->
      match a.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "Guest"; _ }, None) -> true
      | Pexp_ident { txt = Longident.Lident "Guest"; _ } -> true
      | _ -> false)
    args

let is_fetch_app e =
  match e.pexp_desc with
  | Pexp_apply (f, args) ->
      let name = head_name f in
      name_in fetch_always name || (name_in fetch_with_guest_actor name && has_guest_actor args)
  | _ -> false

let collapse_ws s =
  let buf = Buffer.create (String.length s) in
  let pending = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\n' | '\t' | '\r' -> if Buffer.length buf > 0 then pending := true
      | c ->
          if !pending then Buffer.add_char buf ' ';
          pending := false;
          Buffer.add_char buf c)
    s;
  Buffer.contents buf

let truncate n s = if String.length s <= n then s else String.sub s 0 n ^ "..."

let normalize_expr e = truncate 160 (collapse_ws (Pprintast.string_of_expression e))

let line_of e = e.pexp_loc.Location.loc_start.Lexing.pos_lnum

(* --- per-function analysis -------------------------------------------- *)

type ctx = {
  c_file : string;
  c_role : role;
  c_func : string;
  c_in_cionet_ring : bool;
  tainted : (string, unit) Hashtbl.t;
  mutable fetches : (string * int) list;  (* normalized fetch app, line *)
  mutable out : finding list;
}

let emit ctx rule line detail =
  ctx.out <-
    { f_rule = rule; f_file = ctx.c_file; f_func = ctx.c_func; f_line = line; f_detail = detail; f_role = ctx.c_role }
    :: ctx.out

let mark_tainted ctx v = Hashtbl.replace ctx.tainted v ()
let mark_clean ctx v = Hashtbl.remove ctx.tainted v
let is_tainted ctx v = Hashtbl.mem ctx.tainted v

let tainted_vars_in ctx e =
  let acc = ref [] in
  iter_idents (fun v -> if is_tainted ctx v && not (List.mem v !acc) then acc := v :: !acc) e;
  List.sort compare !acc

let mentions_tainted ctx e = tainted_vars_in ctx e <> []

(* An expression carries taint if it is itself a guest fetch, or mentions
   a currently-tainted variable — unless its head is a recognized
   validation form (the value has just been confined). *)
let expr_tainted ctx e =
  if is_fetch_app e then true
  else
    let head = match e.pexp_desc with Pexp_apply (f, _) -> head_name f | _ -> None in
    if is_sanitizer_head head then false else mentions_tainted ctx e

(* Discharge: a tainted variable passed through a validation form or a
   relational guard is considered confined from here on. *)
let apply_sanitizer_mentions ctx f args =
  let name = head_name f in
  if is_sanitizer_head name || is_comparison_head name then
    List.iter (fun (_, a) -> iter_idents (fun v -> mark_clean ctx v) a) args

let positional args =
  List.filter_map (fun (lbl, a) -> match lbl with Asttypes.Nolabel -> Some a | _ -> None) args

let labelled args lbl =
  List.find_map
    (fun (l, a) -> match l with Asttypes.Labelled l' when l' = lbl -> Some a | _ -> None)
    args

let check_sink ctx app_line f args =
  match lookup_in sinks (head_name f) with
  | None -> ()
  | Some spec ->
      let name = match head_name f with Some n -> n | None -> "?" in
      let short =
        match String.split_on_char '.' name with
        | _ :: _ :: _ :: _ as parts ->
            (* strip library prefixes like [Cio_mem.] down to Module.fn *)
            String.concat "." (List.filteri (fun i _ -> i >= List.length parts - 2) parts)
        | _ -> name
      in
      let pos_args = positional args in
      let flag where a =
        if expr_tainted ctx a then begin
          let vars = tainted_vars_in ctx a in
          let via = if vars = [] then "" else " via " ^ String.concat ", " vars in
          emit ctx UV app_line
            (Printf.sprintf "untrusted value reaches %s %s%s" short where via)
        end
      in
      List.iter
        (fun p -> match List.nth_opt pos_args p with Some a -> flag (Printf.sprintf "argument %d" p) a | None -> ())
        spec.positions;
      List.iter
        (fun l -> match labelled args l with Some a -> flag (Printf.sprintf "~%s" l) a | None -> ())
        spec.labels

let check_unsafe ctx e lid =
  let name = flatten_lid lid.Location.txt in
  if List.exists (fun u -> List.mem u (name_candidates name)) unsafe_idents then
    emit ctx UC (line_of e) (Printf.sprintf "unsafe primitive %s" name)

(* UW: a recursive function whose next step is steered by a value fetched
   from shared memory inside its own body — the descriptor-chain walk.
   A raise-based fuse is not a bound: it converts unbounded work into a
   crash, which is still the Fig. 3/4 bug class. *)
let check_rec_chain_walk ctx fname body =
  let fetch_bound = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_let (_, vbs, _) ->
              List.iter
                (fun vb -> if is_fetch_app vb.pvb_expr then fetch_bound := pattern_vars vb.pvb_pat @ !fetch_bound)
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it body;
  if !fetch_bound <> [] then begin
    let hit = ref None in
    let it2 =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            (match ex.pexp_desc with
            | Pexp_apply (f, args) when head_name f = Some fname ->
                List.iter
                  (fun (_, a) ->
                    iter_idents
                      (fun v -> if List.mem v !fetch_bound && !hit = None then hit := Some (line_of ex, v))
                      a)
                  args
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex);
      }
    in
    it2.expr it2 body;
    match !hit with
    | Some (line, v) ->
        emit ctx UW line
          (Printf.sprintf "recursion in %s is steered by device-fetched value %s (no structural bound)"
             fname v)
    | None -> ()
  end

(* UW (loop form): a while loop whose condition depends on a variable
   that the body re-fetches from shared memory — the bound moves under
   the loop. *)
let check_while ctx cond body =
  let cond_vars = tainted_vars_in ctx cond in
  if cond_vars <> [] then begin
    let refetched = ref None in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            (match ex.pexp_desc with
            | Pexp_let (_, vbs, _) ->
                List.iter
                  (fun vb ->
                    if is_fetch_app vb.pvb_expr then
                      List.iter
                        (fun v -> if List.mem v cond_vars && !refetched = None then refetched := Some (line_of ex, v))
                        (pattern_vars vb.pvb_pat))
                  vbs
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it body;
    match !refetched with
    | Some (line, v) ->
        emit ctx UW line
          (Printf.sprintf "while-loop bound %s is re-fetched from shared memory inside the loop" v)
    | None -> ()
  end

let check_setfield ctx line lid rhs =
  if ctx.c_in_cionet_ring && expr_tainted ctx rhs then
    let field = flatten_lid lid.Location.txt in
    let vars = tainted_vars_in ctx rhs in
    emit ctx SI line
      (Printf.sprintf "ring-module mutable field %s derives from untrusted input%s" field
         (if vars = [] then "" else " via " ^ String.concat ", " vars))

(* The walker: source-order traversal maintaining the taint set. *)
let rec walk ctx e =
  match e.pexp_desc with
  | Pexp_ident lid ->
      check_unsafe ctx e lid
  | Pexp_let (rf, vbs, body) ->
      if rf = Asttypes.Recursive then
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = fname; _ } -> check_rec_chain_walk ctx fname vb.pvb_expr
            | _ -> ())
          vbs;
      List.iter
        (fun vb ->
          walk ctx vb.pvb_expr;
          let vars = pattern_vars vb.pvb_pat in
          if expr_tainted ctx vb.pvb_expr then List.iter (mark_tainted ctx) vars
          else List.iter (mark_clean ctx) vars)
        vbs;
      walk ctx body
  | Pexp_apply (f, args) ->
      if is_fetch_app e then ctx.fetches <- (normalize_expr e, line_of e) :: ctx.fetches;
      check_sink ctx (line_of e) f args;
      (* Assignment through a ref cell counts as mutable state too. *)
      (match (head_name f, args) with
      | Some ":=", [ (_, lhs); (_, rhs) ] -> (
          match lhs.pexp_desc with
          | Pexp_ident lid -> check_setfield ctx (line_of e) lid rhs
          | _ -> ())
      | _ -> ());
      walk ctx f;
      List.iter (fun (_, a) -> walk ctx a) args;
      (* Discharge after walking the arguments so the sink check above saw
         the pre-validation state of this same node's arguments. *)
      apply_sanitizer_mentions ctx f args
  | Pexp_while (cond, body) ->
      walk ctx cond;
      check_while ctx cond body;
      walk ctx body
  | Pexp_setfield (lhs, lid, rhs) ->
      walk ctx lhs;
      walk ctx rhs;
      check_setfield ctx (line_of e) lid rhs
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk ctx scrut;
      let scrut_tainted = expr_tainted ctx scrut in
      List.iter
        (fun c ->
          if scrut_tainted then List.iter (mark_tainted ctx) (pattern_vars c.pc_lhs);
          Option.iter (walk ctx) c.pc_guard;
          walk ctx c.pc_rhs)
        cases
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (walk ctx) c.pc_guard;
          walk ctx c.pc_rhs)
        cases
  | Pexp_fun (_, default, _, body) ->
      Option.iter (walk ctx) default;
      walk ctx body
  | Pexp_sequence (a, b) ->
      walk ctx a;
      walk ctx b
  | Pexp_ifthenelse (c, t, e') ->
      walk ctx c;
      walk ctx t;
      Option.iter (walk ctx) e'
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) -> walk ctx e'
  | Pexp_tuple l | Pexp_array l -> List.iter (walk ctx) l
  | Pexp_construct (_, eo) | Pexp_variant (_, eo) -> Option.iter (walk ctx) eo
  | Pexp_record (fields, base) ->
      Option.iter (walk ctx) base;
      List.iter (fun (_, v) -> walk ctx v) fields
  | Pexp_field (e', _) -> walk ctx e'
  | Pexp_for (_, lo, hi, _, body) ->
      walk ctx lo;
      walk ctx hi;
      walk ctx body
  | Pexp_lazy e' | Pexp_assert e' | Pexp_newtype (_, e') | Pexp_letexception (_, e') -> walk ctx e'
  | Pexp_open (_, e') -> walk ctx e'
  | Pexp_letmodule (_, me, e') ->
      walk_module ctx me;
      walk ctx e'
  | Pexp_send (e', _) -> walk ctx e'
  | _ -> ()

and walk_module ctx me =
  match me.pmod_desc with
  | Pmod_structure str ->
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter (fun vb -> walk ctx vb.pvb_expr) vbs
          | _ -> ())
        str
  | _ -> ()

let finish_df ctx =
  (* Group identical fetch expressions: the same shared offset pulled
     twice in one function without an intervening snapshot is the
     textbook double fetch. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (norm, line) ->
      let prev = try Hashtbl.find tbl norm with Not_found -> [] in
      Hashtbl.replace tbl norm (line :: prev))
    ctx.fetches;
  Hashtbl.iter
    (fun norm lines ->
      if List.length lines >= 2 then
        let line = List.fold_left max 0 lines in
        emit ctx DF line (Printf.sprintf "fetched twice from shared memory: %s" norm))
    tbl

let analyze_binding ~file ~role ~in_ring ~recursive vb =
  let fname =
    match pattern_vars vb.pvb_pat with name :: _ -> name | [] -> "(toplevel)"
  in
  let ctx =
    {
      c_file = file;
      c_role = role;
      c_func = fname;
      c_in_cionet_ring = in_ring;
      tainted = Hashtbl.create 16;
      fetches = [];
      out = [];
    }
  in
  if recursive then begin
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> check_rec_chain_walk ctx txt vb.pvb_expr
    | _ -> ()
  end;
  walk ctx vb.pvb_expr;
  finish_df ctx;
  List.rev ctx.out

(* --- file and tree scanning ------------------------------------------- *)

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

(* SI applies to the guest-side cionet ring modules: the paper's
   stateless-interface principle says their mutable state must never
   derive from anything the host wrote. *)
let in_cionet_ring rel = Tcb.role rel = Tcb.Guest Tcb.Cionet_driver

let rec analyze_structure ~file ~role ~in_ring str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (rf, vbs) ->
          List.concat_map
            (fun vb ->
              analyze_binding ~file ~role ~in_ring ~recursive:(rf = Asttypes.Recursive) vb)
            vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
          analyze_structure ~file ~role ~in_ring sub
      | Pstr_eval (e, _) ->
          let vb =
            {
              pvb_pat = Ast_helper.Pat.any ();
              pvb_expr = e;
              pvb_constraint = None;
              pvb_attributes = [];
              pvb_loc = item.pstr_loc;
            }
          in
          analyze_binding ~file ~role ~in_ring ~recursive:false vb
      | _ -> [])
    str

let scan_file ~root rel =
  match classify rel with
  | Host_model | Harness -> []
  | role ->
      let str = parse_file (Filename.concat root rel) in
      analyze_structure ~file:rel ~role ~in_ring:(in_cionet_ring rel) str

let scan ~root = List.concat_map (fun rel -> scan_file ~root rel) (Tcb.ml_files ~root)

(* --- reporting -------------------------------------------------------- *)

let category_name f = Cio_data.Hardening.category_name (rule_category f.f_rule)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s/%s] (%s) %s: %s" f.f_file f.f_line (rule_name f.f_rule)
    (category_name f) (role_name f.f_role) f.f_func f.f_detail

let pp_findings ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_finding f) findings;
  let by_rule r = List.length (List.filter (fun f -> f.f_rule = r) findings) in
  Format.fprintf ppf "%d finding(s):" (List.length findings);
  List.iter (fun r -> Format.fprintf ppf " %s=%d" (rule_name r) (by_rule r)) all_rules;
  Format.fprintf ppf "@."

let finding_to_json f =
  Json_lite.Obj
    [
      ("rule", Json_lite.Str (rule_name f.f_rule));
      ("category", Json_lite.Str (category_name f));
      ("file", Json_lite.Str f.f_file);
      ("function", Json_lite.Str f.f_func);
      ("line", Json_lite.Num (float_of_int f.f_line));
      ("detail", Json_lite.Str f.f_detail);
      ("role", Json_lite.Str (role_name f.f_role));
      ("key", Json_lite.Str (key f));
    ]

let to_json findings =
  let by_rule r = List.length (List.filter (fun f -> f.f_rule = r) findings) in
  Json_lite.Obj
    [
      ("schema", Json_lite.Str "cio-lint-v1");
      ("findings", Json_lite.List (List.map finding_to_json findings));
      ( "summary",
        Json_lite.Obj
          (("total", Json_lite.Num (float_of_int (List.length findings)))
          :: List.map (fun r -> (rule_name r, Json_lite.Num (float_of_int (by_rule r)))) all_rules)
      );
    ]

(* --- baseline and the two-sided gate ---------------------------------- *)

type baseline_entry = { b_key : string; b_file : string; b_rule : string }

let load_baseline path =
  let doc = Json_lite.of_file path in
  (match Json_lite.member "schema" doc with
  | Some (Json_lite.Str "cio-lint-v1") -> ()
  | _ -> failwith (path ^ ": not a cio-lint-v1 baseline"));
  match Option.bind (Json_lite.member "findings" doc) Json_lite.to_list with
  | None -> failwith (path ^ ": missing findings array")
  | Some items ->
      List.filter_map
        (fun item ->
          let str name = Option.bind (Json_lite.member name item) Json_lite.to_string_opt in
          match (str "key", str "file", str "rule") with
          | Some k, Some f, Some r -> Some { b_key = k; b_file = f; b_rule = r }
          | _ -> None)
        items

type gate_result = {
  g_new_trusted : finding list;  (* trusted-path findings not in the baseline *)
  g_corpus_missing : baseline_entry list;  (* expected corpus findings that vanished *)
  g_corpus_count : int;
  g_corpus_categories : int;
  g_ok : bool;
}

(* The corpus must keep demonstrating the rules work: at least this many
   findings across at least this many distinct rule categories. *)
let corpus_min_findings = 5
let corpus_min_categories = 3

let gate ~baseline findings =
  let current_keys = List.map key findings in
  let baseline_keys = List.map (fun b -> b.b_key) baseline in
  let new_trusted =
    List.filter
      (fun f -> f.f_role = Trusted && not (List.mem (key f) baseline_keys))
      findings
  in
  let corpus_missing =
    List.filter
      (fun b -> classify b.b_file = Corpus && not (List.mem b.b_key current_keys))
      baseline
  in
  let corpus_now = List.filter (fun f -> f.f_role = Corpus) findings in
  let corpus_rules = List.sort_uniq compare (List.map (fun f -> f.f_rule) corpus_now) in
  let ok =
    new_trusted = [] && corpus_missing = []
    && List.length corpus_now >= corpus_min_findings
    && List.length corpus_rules >= corpus_min_categories
  in
  {
    g_new_trusted = new_trusted;
    g_corpus_missing = corpus_missing;
    g_corpus_count = List.length corpus_now;
    g_corpus_categories = List.length corpus_rules;
    g_ok = ok;
  }

let pp_gate ppf g =
  if g.g_new_trusted <> [] then begin
    Format.fprintf ppf "FAIL: %d new finding(s) in trusted components:@."
      (List.length g.g_new_trusted);
    List.iter (fun f -> Format.fprintf ppf "  %a@." pp_finding f) g.g_new_trusted
  end;
  if g.g_corpus_missing <> [] then begin
    Format.fprintf ppf
      "FAIL: %d expected corpus finding(s) vanished (the rules regressed, not the driver):@."
      (List.length g.g_corpus_missing);
    List.iter (fun b -> Format.fprintf ppf "  %s@." b.b_key) g.g_corpus_missing
  end;
  if g.g_corpus_count < corpus_min_findings || g.g_corpus_categories < corpus_min_categories then
    Format.fprintf ppf
      "FAIL: corpus coverage too thin: %d finding(s) in %d categories (need >= %d in >= %d)@."
      g.g_corpus_count g.g_corpus_categories corpus_min_findings corpus_min_categories;
  if g.g_ok then
    Format.fprintf ppf
      "gate ok: no new trusted-path findings; corpus still yields %d finding(s) in %d categories@."
      g.g_corpus_count g.g_corpus_categories
