% Fixed: the inliner substituted a literal actual for a read-only formal
% the callee indexes, leaving `p1(2.0)` naming no variable at all, so
% compiled code raised Undefined("p1") where the interpreter raised
% IndexOutOfBounds on the 1x1 actual. Formals the callee indexes are
% now copied, never replaced by a literal.
% Found by the default fuzzing grammar (seed 12048).
% entry: f0
% arg: scalar 0.0
function r = f0(p0)
r = f1(0.0, 0.0);
function r = f1(p0, p1)
r = p1(2.0);
