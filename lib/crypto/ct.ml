(* Constant-time(-shaped) comparison.

   OCaml cannot promise cycle-exact constant time, but the comparison is
   branch-free over the data so the *interface discipline* — never
   early-exit on a tag mismatch — is preserved, which is what the safe-
   interface principles require of implementations. *)

let equal_sub a ~a_off b ~b_off ~len =
  if len < 0 || a_off < 0 || a_off > Bytes.length a - len || b_off < 0
     || b_off > Bytes.length b - len
  then invalid_arg "Ct.equal_sub: range out of bounds";
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc := !acc lor (Char.code (Bytes.get a (a_off + i)) lxor Char.code (Bytes.get b (b_off + i)))
  done;
  !acc = 0

let equal a b =
  Bytes.length a = Bytes.length b && equal_sub a ~a_off:0 b ~b_off:0 ~len:(Bytes.length a)
