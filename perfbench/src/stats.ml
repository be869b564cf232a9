(* Order statistics for latency samples and per-round host figures. *)

let sorted (a : int array) =
  let b = Array.copy a in
  Array.sort Int.compare b;
  b

(* Linear-interpolated [p]-quantile of sorted samples, or [None] when
   fewer than 10 samples lie beyond it: a tail figure resting on fewer
   samples is not printed. *)
let percentile ~p (s : int array) =
  let n = Array.length s in
  if n = 0 || p < 0. || p > 1. then None
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if n - 1 - hi < 10 then None
    else
      let frac = rank -. float_of_int lo in
      Some
        (float_of_int s.(lo) +. (frac *. float_of_int (s.(hi) - s.(lo))))

(* Nearest-rank quantile in integer nanoseconds, for digests: exact
   and stable text, defined for any non-empty sample. *)
let rank_value ~p (s : int array) =
  let n = Array.length s in
  if n = 0 then 0
  else
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) i))

(* [n / d], or 0 when there is nothing to divide by. *)
let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d
let fper x d = if d = 0 then 0. else x /. float_of_int d

let median (xs : float list) =
  match List.sort Float.compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Growable int buffer for samples collected inside simulation
   callbacks. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

