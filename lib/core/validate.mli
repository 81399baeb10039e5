(** Validation diagnostics, and the window phase of validation.

    The paper's analysis rests on well-formedness assumptions it never
    states as checks: the precedence relation is acyclic (Section 2.1),
    every task window can hold its computation (Section 3, the Theorem 1
    precondition [E_i + C_i <= L_i]), and every referenced processor or
    resource exists in the system model.  The feasibility-test literature
    (Bonifaci et al.; Kermia) treats this as a first-class analysis step.
    Unlike the smart constructors, which fail fast and therefore report
    only the first problem, with no location, validation visits
    {e everything} and returns a list.

    Validation reads an application file once
    ([Rtfmt.Appfile.check]): the declaration checks ([E101], [E103]-
    [E106], the declared-window half of [E102], [W201], [W202]) run on
    the reader's columns, and when they find no error the instance is
    built from the same columns and {!check_windows} runs on it.  This
    module holds the diagnostic type and that window phase.

    Diagnostic codes are stable (golden tests and downstream tooling key
    on them; see [docs/DIAGNOSTICS.md]):

    - [E100] file does not parse / application cannot be built
    - [E101] precedence cycle (including self-loops)
    - [E102] infeasible window: task-level ([rel + C > D]) or after the
      EST/LCT propagation ([E + C > L])
    - [E103] dangling reference: edge endpoint not declared, or a
      processor/resource the system model does not provide
    - [E104] invalid quantity: negative compute/release/deadline/message,
      non-positive period, offset outside [\[0, period)], zero resource
      units, empty processor name
    - [E105] duplicate task name or duplicate edge
    - [E106] mixed periodic and one-shot tasks
    - [W201] zero-compute task
    - [W202] resource in the system model used by no task
    - [W203] zero-slack task after EST/LCT (no scheduling freedom) *)

type severity = Error | Warning

type diag = {
  d_code : string;  (** Stable code, ["E101"] ... ["W203"]. *)
  d_severity : severity;
  d_subject : string;  (** Offending task/edge/resource, or ["application"]. *)
  d_message : string;
  d_line : int option;  (** 1-based source line when validated from a file. *)
}

val check_windows :
  ?line_of:(int -> int option) -> system:System.t -> App.t -> diag list
(** The window phase: runs the Section 4 EST/LCT propagation and
    reports [E102] for every task whose window cannot hold its
    computation under any assignment, and [W203] for zero-slack tasks,
    sorted by {!by_line}.  [line_of] maps a task id to a source line.
    If the system cannot host every task, or the instance's times leave
    the integer range, returns that one [E103] or [E104] instead of
    raising. *)

val errors : diag list -> diag list
val has_errors : diag list -> bool

val by_line : diag list -> diag list
(** Stably sorted by source line, diagnostics without a line last: the
    order in which every diagnostic list is reported. *)

val to_string : ?file:string -> diag -> string
(** One stable line per diagnostic, compiler style:
    ["FILE:LINE: CODE subject: message"] (the [FILE:LINE:] prefix
    shrinks to what is known). *)

val pp_diag : Format.formatter -> diag -> unit
