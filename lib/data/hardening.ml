(* Figures 3/4 dataset: hardening commits to the Linux NetVSC and VirtIO
   paravirtual drivers, classified into the paper's seven change types.

   Substitution note (DESIGN.md §1): the authors' classified commit list
   lives in hlef/cio-hotos23-data; without network access we embed a
   corpus matching the distributions the paper reports — NetVSC: checks
   21%, init 18%, copies/races/restrict 14% each, design 11%; VirtIO:
   checks 35%, init 28%, and *12 amend/revert commits out of the series*
   ("over 40 commits, 12 either revert or amend previous hardening
   changes"). Subjects are modelled on real lkml series titles (e.g.
   "hv_netvsc: Add validation for untrusted Hyper-V values" [43], the
   virtio hardening RFC [64]). The classification/aggregation pipeline
   below is what reproduces the figures from the corpus. *)

type category =
  | Add_checks
  | Add_init
  | Add_copies
  | Protect_races
  | Restrict_features
  | Design_change
  | Amend_previous

let all_categories =
  [ Add_checks; Add_init; Add_copies; Protect_races; Restrict_features; Design_change; Amend_previous ]

let category_name = function
  | Add_checks -> "add checks"
  | Add_init -> "add init"
  | Add_copies -> "add copies"
  | Protect_races -> "protect races"
  | Restrict_features -> "restrict features"
  | Design_change -> "design changes"
  | Amend_previous -> "amend earlier"

type subsystem = Netvsc | Virtio

let subsystem_name = function Netvsc -> "netvsc" | Virtio -> "virtio"

type commit = {
  id : string;
  subsystem : subsystem;
  subject : string;
  category : category;
  amends : string option;  (* id of the hardening commit this one fixes *)
  reverted : bool;         (* never re-applied after the revert *)
}

let subject_template subsystem category i =
  let prefix = match subsystem with Netvsc -> "hv_netvsc" | Virtio -> "virtio" in
  match category with
  | Add_checks -> Printf.sprintf "%s: validate untrusted device field (%d)" prefix i
  | Add_init -> Printf.sprintf "%s: initialize buffer before exposing to host (%d)" prefix i
  | Add_copies -> Printf.sprintf "%s: copy descriptor out of shared memory before use (%d)" prefix i
  | Protect_races -> Printf.sprintf "%s: fix race against host-writable state (%d)" prefix i
  | Restrict_features -> Printf.sprintf "%s: disable unneeded feature under confidential guest (%d)" prefix i
  | Design_change -> Printf.sprintf "%s: rework completion path for untrusted device (%d)" prefix i
  | Amend_previous -> Printf.sprintf "%s: fix earlier hardening change (%d)" prefix i

(* (category, count) shape per subsystem — the bar heights of the
   figures. *)
let netvsc_shape =
  [
    (Add_checks, 12);
    (Add_init, 10);
    (Add_copies, 8);
    (Protect_races, 8);
    (Restrict_features, 8);
    (Design_change, 6);
    (Amend_previous, 5);
  ]

let virtio_shape =
  [
    (Add_checks, 20);
    (Add_init, 16);
    (Amend_previous, 12);
    (Add_copies, 6);
    (Protect_races, 2);
    (Restrict_features, 1);
    (Design_change, 0);
  ]

let build subsystem shape =
  let commits = ref [] in
  let counter = ref 0 in
  List.iter
    (fun (category, n) ->
      for i = 1 to n do
        incr counter;
        let id = Printf.sprintf "%s-%04d" (subsystem_name subsystem) !counter in
        let amends, reverted =
          match category with
          | Amend_previous ->
              (* Each amend targets an earlier non-amend commit; roughly a
                 third of the amendments are outright reverts that never
                 came back ("some of them never to be re-applied"). *)
              let target = Printf.sprintf "%s-%04d" (subsystem_name subsystem) (1 + (i mod 5)) in
              (Some target, i mod 3 = 0)
          | _ -> (None, false)
        in
        commits :=
          {
            id;
            subsystem;
            subject = subject_template subsystem category i;
            category;
            amends;
            reverted;
          }
          :: !commits
      done)
    shape;
  List.rev !commits

let corpus = build Netvsc netvsc_shape @ build Virtio virtio_shape

let commits_of subsystem = List.filter (fun c -> c.subsystem = subsystem) corpus

(* --- the analysis pipeline (what regenerates the figures) ------------ *)

let count subsystem category =
  List.length (List.filter (fun c -> c.category = category) (commits_of subsystem))

let total subsystem = List.length (commits_of subsystem)

let distribution subsystem =
  List.map (fun cat -> (cat, count subsystem cat)) all_categories

let percentage subsystem category =
  100.0 *. float_of_int (count subsystem category) /. float_of_int (total subsystem)

let amend_count subsystem = count subsystem Amend_previous

let amend_rate subsystem =
  float_of_int (amend_count subsystem) /. float_of_int (total subsystem)

let revert_count subsystem =
  List.length (List.filter (fun c -> c.reverted) (commits_of subsystem))

let dominant_category subsystem =
  let dist = distribution subsystem in
  fst (List.fold_left (fun (bc, bn) (c, n) -> if n > bn then (c, n) else (bc, bn)) (List.hd dist) dist)
