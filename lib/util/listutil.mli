(** List combinatorics used by both synthesis engines. *)

val cartesian : 'a list list -> 'a list list
(** Full cartesian product; [cartesian [[1;2];[3]]] is [[[1;3];[2;3]]].
    The product of an empty list of lists is [[[]]] (one empty choice).
    If any component list is empty the product is empty. *)

val cartesian_count : 'a list list -> int
(** Size of the product without materializing it; saturates at [max_int]. *)

val iter_cartesian : ('a list -> unit) -> 'a list list -> unit
(** Iterate the product without building the list of combinations: the HISyn
    baseline must enumerate billions of combinations in the worst case, and
    materialization would turn a timeout into an OOM. Combinations are
    produced in lexicographic order of the component lists. *)

val cartesian_take : int -> 'a list list -> 'a list list
(** [cartesian_take n lls] is [take n (cartesian lls)], built without
    enumerating the combinations after the [n]th. *)

val group_by : key:('a -> 'b) -> 'a list -> ('b * 'a list) list
(** Stable grouping; groups appear in order of first occurrence of their key,
    and elements keep their relative order. Keys compared with
    polymorphic equality. *)

val take : int -> 'a list -> 'a list
val uniq : 'a list -> 'a list (* stable, polymorphic equality *)
val max_by : ('a -> 'a -> int) -> 'a list -> 'a option
val min_by : ('a -> 'a -> int) -> 'a list -> 'a option
val sum_by : ('a -> int) -> 'a list -> int
