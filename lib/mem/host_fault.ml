(* One-shot host faults, queued in injection order and taken by the
   first hook point that can apply them. Shared by the cionet host model
   and both virtio device models. *)

type 'a queue = 'a list ref

let queue () = ref []
let push q m = q := !q @ [ m ]
let is_empty q = match !q with [] -> true | _ :: _ -> false

(* A top-level loop: taking from an empty queue, as an honest host does
   on every burst, allocates nothing. *)
let rec take_from q applies acc = function
  | [] -> None
  | m :: rest -> (
      match applies m with
      | Some _ as r ->
          q := List.rev_append acc rest;
          r
      | None -> take_from q applies (m :: acc) rest)

let take q applies = take_from q applies [] !q

let race_word region ~watch ~off v =
  Region.set_guest_read_hook region
    (Some
       (fun ~off:fetched ~len:_ ->
         if fetched = watch then begin
           Region.set_guest_read_hook region None;
           Region.write_u32 region Region.Host ~off v
         end))
