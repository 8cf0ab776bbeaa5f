% Fixed: the min/max rule joined operand ranges without the runtime's
% NaN-ignoring pick, so max(1, NaN) was typed real <nan,nan> although
% the runtime returns 1.
% entry: f0
% arg: scalar NaN
function r = f0(p1)
r = max(1.0, p1);
