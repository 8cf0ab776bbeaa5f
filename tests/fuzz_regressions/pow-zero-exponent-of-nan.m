% Fixed: x^0 of a NaN operand kept the NaN's empty range, but the
% runtime returns 1 for every x, NaN included, so the result escaped
% its inferred type. Found by the default grammar beyond the smoke
% budget (seed 20904).
% entry: f0
% arg: scalar NaN
function r = f0(p0)
r = ((-p0) .^ 0.0);
