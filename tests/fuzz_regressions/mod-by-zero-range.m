% Fixed: the mod/rem rule bounded the result by the divisor even when
% the divisor's range contains 0, so mod(1, 0) was typed int <-0,0>
% although the runtime returns 1 (mod(a, 0) is a; rem(a, 0) is NaN).
% entry: f0
function r = f0()
r = mod(1.0, 0.0);
