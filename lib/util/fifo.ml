(* A FIFO of values over one growable circular array.

   Values go in at the back and come out at the front; a caller may also
   read any queued value in place or insert one at any position. The
   array doubles when full and never shrinks, so a queue in steady state
   allocates nothing. A cell given up is overwritten with the filler the
   queue was created with, so the queue keeps no value it has handed
   out alive. *)

type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int; filler : 'a }

let create filler = { buf = Array.make 16 filler; head = 0; len = 0; filler }
let length q = q.len
let is_empty q = q.len = 0

(* Array index of the [i]-th queued value; the capacity is a power of two. *)
let slot q i = (q.head + i) land (Array.length q.buf - 1)

let get q i =
  if i < 0 || i >= q.len then invalid_arg "Fifo.get: position out of range";
  q.buf.(slot q i)

let grow q =
  let bigger = Array.make (2 * Array.length q.buf) q.filler in
  for i = 0 to q.len - 1 do
    bigger.(i) <- q.buf.(slot q i)
  done;
  q.buf <- bigger;
  q.head <- 0

let insert q i x =
  if i < 0 || i > q.len then invalid_arg "Fifo.insert: position out of range";
  if q.len = Array.length q.buf then grow q;
  for j = q.len downto i + 1 do
    q.buf.(slot q j) <- q.buf.(slot q (j - 1))
  done;
  q.buf.(slot q i) <- x;
  q.len <- q.len + 1

let push q x = insert q q.len x

let pop q =
  if q.len = 0 then invalid_arg "Fifo.pop: empty queue";
  let x = q.buf.(q.head) in
  q.buf.(q.head) <- q.filler;
  q.head <- slot q 1;
  q.len <- q.len - 1;
  x
