"""Ground-truth verdicts, judged against what the library returned.

Every generated request carries ``expected``: a dict from an observed field
(``overall``, ``class``, ``agreement``, ``spaces``) to the value that the
inputs force by construction. The run compares that with the fields the
request observed.

Outcomes:

    correct       every field agrees with the ground truth
    false_reject  the only contradiction is ``overall: reject`` where the
                  truth is ``accept``: the library failed to confirm a true
                  membership (incomplete, not unsound)
    declined      the library refused the request with a ValueError raised
                  by matholab itself (its own input check)
    undecided     no contradiction, but some field says "undecided"
    wrong         some other decided field contradicts the truth: a false
                  accept, a wrong kernel class, a wrong agreement or space
    raised        any other exception

``wrong`` and ``raised`` are failures: an unsound answer or a crash. A
false reject, a refusal and an undecided answer are neither correct nor
failed; they lower the correct share and are counted in the detail line.
So a change that turns a false reject into "undecided" leaves the correct
share as it is, one that makes the verdict right raises it, and one that
turns a correct verdict into a false reject lowers it.
"""

import traceback
from pathlib import Path

CORRECT = "correct"
FALSE_REJECT = "false_reject"
DECLINED = "declined"
UNDECIDED = "undecided"
WRONG = "wrong"
RAISED = "raised"
FAILED = (WRONG, RAISED)


class BenchmarkError(RuntimeError):
    """A check of the benchmark itself failed; the run's numbers mean nothing."""


def classify_exception(exc):
    """DECLINED for a ValueError that matholab raised itself, else RAISED.

    A ValueError raised inside numpy (a shape mismatch, say) is a crash, not
    the library's refusal, so the frame that raised must be matholab's own.
    """
    if type(exc) is ValueError:
        frames = traceback.extract_tb(exc.__traceback__)
        if frames and "/matholab/" in Path(frames[-1].filename).as_posix():
            return DECLINED
    return RAISED


def judge(expected, observed, exc=None):
    """Outcome of one request; ``observed`` is None and ``exc`` set when it raised."""
    if observed is None:
        return classify_exception(exc)
    undecided = false_reject = False
    for field, truth in expected.items():
        got = observed.get(field)
        if got == "undecided":
            undecided = True
        elif field == "overall" and truth == "accept" and got == "reject":
            false_reject = True
        elif got != truth:
            return WRONG
    if false_reject:
        return FALSE_REJECT
    return UNDECIDED if undecided else CORRECT
